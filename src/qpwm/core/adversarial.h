// Khanna-Zane transform (Fact 1): turning the non-adversarial schemes into
// adversarial ones. Each message bit is spread over a group of `redundancy`
// pairs with antipodal encoding; the detector takes a majority vote of the
// per-pair delta signs. Under the bounded-distortion and limited-knowledge
// assumptions an attacker flips few votes, so majorities survive; on an
// unrelated database the votes are coin flips, bounding false positives.
//
// The wrapper is scheme-agnostic: it drives any base scheme exposing mark
// application and per-pair delta reading (the local scheme of Theorem 3 and
// the tree scheme of Theorems 4/5 both do).
#ifndef QPWM_CORE_ADVERSARIAL_H_
#define QPWM_CORE_ADVERSARIAL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "qpwm/core/local_scheme.h"
#include "qpwm/core/tree_scheme.h"
#include "qpwm/util/bitvec.h"
#include "qpwm/util/status.h"

namespace qpwm {

/// Detection output with per-bit confidence and erasure accounting.
///
/// Structural attacks (tuple deletion, dropped subtrees, shipped subsets)
/// remove pair elements from the suspect's answers. Such pairs are *erasures*:
/// they abstain from the vote and shrink the group, they are never fabricated
/// as 0-deltas. A bit whose entire group was erased is reported as erased
/// rather than guessed — detection returns this partial report instead of an
/// all-or-nothing kDetectionFailed.
struct AdversarialDetection {
  BitVec mark;
  /// Vote margin per bit: (votes for winner - votes against) / surviving
  /// group size, in [0, 1]. A margin of 0 means a tie (that bit is
  /// untrusted); erased bits report margin 0.
  std::vector<double> margins;
  /// Signed raw vote difference per bit (votes for 1 minus votes for 0) —
  /// the exact integer soft information behind `margins`, consumed by the
  /// coding layer's soft-decision decoders.
  std::vector<int32_t> vote_diffs;
  /// Pair votes actually cast per bit: surviving pairs minus delta-0
  /// abstentions. The coding layer's false-positive bound counts these as
  /// the coin flips of its null model.
  std::vector<uint32_t> votes_cast;
  /// Smallest margin over recovered bits — the detection confidence.
  /// 0 when every bit was erased.
  double min_margin = 0;
  /// Surviving (non-erased) pairs per bit group; at most Redundancy() each.
  std::vector<uint32_t> group_sizes;
  /// Per bit: true iff every pair in its group was erased (the mark bit is
  /// reported as 0 but carries no information).
  std::vector<bool> bit_erased;
  /// Pairs whose elements were missing from the suspect's answers.
  size_t pairs_erased = 0;
  /// Bits with at least one surviving vote / bits fully erased.
  size_t bits_recovered = 0;
  size_t bits_erased = 0;

  /// True iff every message bit still has at least one surviving vote.
  bool complete() const { return bits_erased == 0; }
};

/// What the wrapper needs from a base scheme: how to write a full-width
/// mark, the scheme's pair reads, and the weights its read slots start from.
/// Both schemes provide exactly these (ApplyMark, witness_plan, SlotWeights).
class PairCarrier {
 public:
  virtual ~PairCarrier() = default;
  virtual void Apply(const BitVec& expanded_mark, WeightMap& weights,
                     PairEncoding encoding) const = 0;
  virtual const WitnessPlan& witness_plan() const = 0;
  virtual std::vector<Weight> SlotWeights(const WeightMap& weights) const = 0;
};

/// Adversarial wrapper around a planned base scheme.
class AdversarialScheme {
 public:
  /// `redundancy` pairs per message bit (odd values avoid ties). The base
  /// scheme must outlive the wrapper.
  AdversarialScheme(const LocalScheme& base, size_t redundancy);
  AdversarialScheme(const TreeScheme& base, size_t redundancy);

  /// Message capacity: floor(base pairs / redundancy).
  size_t CapacityBits() const { return capacity_; }
  size_t Redundancy() const { return redundancy_; }

  /// Embeds an l-bit message (l = CapacityBits()) by repeating each bit over
  /// its pair group with antipodal encoding.
  WeightMap Embed(const WeightMap& original, const BitVec& message) const;

  /// Majority decoding from suspect answers.
  [[nodiscard]] Result<AdversarialDetection> Detect(const WeightMap& original,
                                      const AnswerServer& suspect) const;

  /// Detects against many suspect copies at once — Remark 2's fingerprint
  /// tracing, where a leak is matched against up to 2^l distinct marked
  /// copies. Suspects are spread across the thread pool (QPWM_THREADS);
  /// results are index-aligned with `suspects` and bit-identical to calling
  /// Detect on each suspect serially, for any thread count. Null suspects
  /// are rejected by QPWM_CHECK; detection itself never fails (partial
  /// reports, not errors), so the results are returned by value.
  std::vector<AdversarialDetection> DetectMany(
      const WeightMap& original,
      const std::vector<const AnswerServer*>& suspects) const;

 private:
  explicit AdversarialScheme(std::unique_ptr<PairCarrier> carrier, size_t redundancy);

  /// Majority decoding of one suspect's pair observations into a detection
  /// report — the pure (allocating only its output) tail of Detect.
  AdversarialDetection DecodeVotes(
      const std::vector<PairObservation>& observations) const;

  std::unique_ptr<PairCarrier> carrier_;
  size_t redundancy_;
  size_t capacity_;
};

}  // namespace qpwm

#endif  // QPWM_CORE_ADVERSARIAL_H_
