// Pair markings (Section 3): the (+1, -1) trick. A pair of active weighted
// elements carries one mark bit; its contribution to a parameter a is
// [b in W_a] - [b' in W_a], in {-1, 0, +1}, and is 0 exactly when the pair
// cancels on that query. The per-parameter *cost* sums |contribution| over
// pairs — an upper bound on the distortion of every possible mark, which is
// what the epsilon-goodness check verifies (a deterministic strengthening of
// Proposition 2, see DESIGN.md).
#ifndef QPWM_CORE_PAIRS_H_
#define QPWM_CORE_PAIRS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "qpwm/core/answers.h"
#include "qpwm/structure/weighted.h"
#include "qpwm/util/bitvec.h"
#include "qpwm/util/status.h"

namespace qpwm {

/// One mark-carrying pair: indices into the QueryIndex active-element table.
struct WeightPair {
  uint32_t plus;   // receives +1 when the bit is set
  uint32_t minus;  // receives -1 when the bit is set
};

/// One pair's reading through the suspect server. A pair whose elements no
/// longer appear in the suspect's answers (deleted tuple, dropped subtree,
/// shipped subset) is an *erasure*: the detector must abstain on it rather
/// than fabricate a 0-delta vote.
struct PairObservation {
  Weight delta = 0;     // (w*+ - w+) - (w*- - w-); meaningless when erased
  bool erased = false;  // element(s) missing from the suspect's answers
};

/// Reusable per-worker buffers for the pair reader (ReadPairs). One instance
/// per worker — see util/parallel.h ScratchPool — makes a steady-state
/// detection pass allocation-free: the flat answer batch, the stamp/staging
/// tables and the observation list all keep their capacity across suspects.
///
/// `epoch` strictly increases for the lifetime of the scratch and is never
/// reset, so a stamp written while reading one suspect can never alias a
/// staging pass over a later suspect.
struct DetectScratch {
  FlatAnswerBatch answers;
  std::vector<uint64_t> stamp;       // per dense key: epoch last staged
  std::vector<Weight> row_weight;    // staged weight, valid iff stamp matches
  std::vector<Weight> read_weight;   // per read slot (2 per pair)
  std::vector<char> read_found;
  Tuple row_tuple;                   // reused key for non-unary active lookup
  std::vector<PairObservation> observations;
  uint64_t epoch = 0;
};

/// How a set bit is written into a pair's weights.
enum class PairEncoding {
  /// bit 1 -> (+1, -1); bit 0 -> no change (the paper's encoding).
  kOnOff,
  /// bit 1 -> (+1, -1); bit 0 -> (-1, +1). Antipodal; doubles the detection
  /// margin, used under the Khanna-Zane adversarial transform.
  kAntipodal,
};

/// The witness reads of a planned marking, fixed at plan time (they depend
/// only on the pairs, never on the suspect). Read slot 2i reads pair i's
/// plus element and slot 2i+1 its minus element, each through one witness
/// parameter whose answer holds the element. The distinct witnesses are kept
/// in first-use order, each with its (read slot, dense key) reads flattened
/// CSR-style.
///
/// How an answer row maps to a dense key is the one thing the two schemes
/// read differently: with `index` set (the local scheme of Theorem 3) a key
/// is a QueryIndex active id; without it (the tree scheme of Theorems 4/5) a
/// key is a unary row's node id, below `num_keys`.
struct WitnessPlan {
  const QueryIndex* index = nullptr;
  size_t num_keys = 0;
  size_t num_pairs = 0;
  // qpwm-lint: allow(legacy-tuple-vector) — witness params interned once at Plan time
  std::vector<Tuple> params;
  std::vector<uint32_t> read_offsets{0};             // per witness: begin in reads
  std::vector<std::pair<uint32_t, uint32_t>> reads;  // (read slot, dense key)
};

/// One read slot handed to MakeWitnessPlan: the parameter whose answer holds
/// the element (null when none does; the slot then always reads as erased),
/// an id for that parameter (slots with equal ids share one witness), and
/// the element's dense key.
struct SlotRead {
  const Tuple* witness = nullptr;
  uint32_t witness_id = 0;
  uint32_t key = 0;
};

/// Groups `slots` (two per pair, in slot order) by witness parameter, in
/// first-use order. `index` and `num_keys` set the key space as documented
/// on WitnessPlan.
WitnessPlan MakeWitnessPlan(const std::vector<SlotRead>& slots,
                            const QueryIndex* index, size_t num_keys);

/// The pair reader both schemes share. Answers every distinct witness of
/// `plan` in one AnswerAllFlat round trip, then reads each slot's element
/// from its witness's rows. `originals` holds the owner's weight of every
/// read slot (two per pair, in slot order). A read is erased when its element
/// is missing from the witness answer, or appears in it more than once (an
/// honest server never repeats a row; a planted duplicate is not evidence).
/// Fills and returns scratch.observations, valid until the next call on that
/// scratch.
const std::vector<PairObservation>& ReadPairs(const WitnessPlan& plan,
                                              const std::vector<Weight>& originals,
                                              const AnswerServer& suspect,
                                              DetectScratch& scratch);

/// Non-adversarial decoding through ReadPairs. Strict: any erased pair fails
/// the whole read with kDetectionFailed. Bit i is set iff pair i's delta
/// reaches the encoding's threshold (clean deltas are +2 for a 1 bit, and 0
/// under kOnOff or -2 under kAntipodal for a 0 bit).
[[nodiscard]] Result<BitVec> DecodePairsStrict(const WitnessPlan& plan,
                                               const std::vector<Weight>& originals,
                                               const AnswerServer& suspect,
                                               PairEncoding encoding);

/// A fixed sequence of pairs over one QueryIndex, with contribution and cost
/// accounting.
class PairMarking {
 public:
  PairMarking(const QueryIndex& index, std::vector<WeightPair> pairs);

  const QueryIndex& index() const { return *index_; }
  const std::vector<WeightPair>& pairs() const { return pairs_; }
  size_t size() const { return pairs_.size(); }

  /// Contribution of pair `i` to parameter `a`: [b in W_a] - [b' in W_a].
  int Contribution(size_t pair_idx, size_t param_idx) const;

  /// cost(a) = sum_i |contribution_i(a)| — the worst-case |f drift| of any
  /// mark at parameter a (for either encoding).
  std::vector<uint32_t> CostPerParam() const;

  /// max_a cost(a). A pair set is epsilon-good iff MaxCost() <= ceil(1/eps).
  uint32_t MaxCost() const;

  /// Writes `mark` (one bit per pair) into `weights` in place.
  void Apply(const BitVec& mark, WeightMap& weights,
             PairEncoding encoding = PairEncoding::kOnOff) const;

  /// Restriction to a subset of the pairs (selection indices, kept in order).
  PairMarking Subset(const std::vector<uint32_t>& selection) const;

 private:
  const QueryIndex* index_;
  std::vector<WeightPair> pairs_;
};

}  // namespace qpwm

#endif  // QPWM_CORE_PAIRS_H_
