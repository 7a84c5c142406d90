// The watermarking scheme of Theorem 3: local queries on bounded-degree
// structures.
//
// Planning pipeline (marker side, deterministic given the secret key):
//   1. type every parameter tuple by its rho-neighborhood isomorphism class
//      (rho = a locality rank of the query; ntp(rho, G) classes);
//   2. fix canonical parameters S = one representative per class;
//   3. classify active weighted elements by cl(w) = the set of classes whose
//      canonical result set contains w; pair elements within equal classes
//      (S-partition) — pairs then cancel exactly on canonical parameters
//      (Proposition 1); leftovers are paired across classes, the randomized
//      fallback the paper borrows from Khanna-Zane;
//   4. select an epsilon-good subset: the per-parameter cost
//      sum_i |contribution_i(a)| is checked against d = ceil(1/epsilon), so
//      *every* one of the 2^l marks satisfies the d-global assumption
//      (deterministic strengthening of Proposition 2); selection is the
//      paper's random p-subsample with retries, or a greedy ablation.
//
// The detector replans from the same inputs and key, then reads the suspect
// pair weights through query answers only (indirect access).
#ifndef QPWM_CORE_LOCAL_SCHEME_H_
#define QPWM_CORE_LOCAL_SCHEME_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "qpwm/core/answers.h"
#include "qpwm/core/pairs.h"
#include "qpwm/util/bitvec.h"
#include "qpwm/util/hash.h"
#include "qpwm/util/status.h"
#include "qpwm/util/thread_annotations.h"

namespace qpwm {

/// How the epsilon-good pair subset is chosen.
enum class PairSelection {
  kPaperRandom,  // Proposition 2: random subsample with probability p, retry
  kGreedy,       // drop pairs from overloaded parameters until within budget
};

struct LocalSchemeOptions {
  /// Neighborhood radius; defaults to min(locality rank of the query, 2).
  std::optional<uint32_t> rho;
  /// Distortion budget: d = ceil(1 / epsilon).
  double epsilon = 0.5;
  /// Owner's secret key; drives pairing order and subsampling.
  PrfKey key;
  PairSelection selection = PairSelection::kPaperRandom;
  /// Ablation: pair within cl(w) classes (true) or arbitrarily (false).
  bool class_pairing = true;
  /// Pair leftover elements across classes (the [10] Prop. 4.3 fallback).
  bool fallback_pairing = true;
  PairEncoding encoding = PairEncoding::kOnOff;
};

/// Planned marker/detector pair for one (structure, query, domain) instance.
class LocalScheme {
 public:
  /// Runs the planning pipeline. The returned scheme may have capacity 0 if
  /// no non-empty epsilon-good subset was found within the retry budget.
  [[nodiscard]] static Result<LocalScheme> Plan(const QueryIndex& index,
                                  const LocalSchemeOptions& options);

  /// Number of hidden bits l (= number of selected pairs).
  size_t CapacityBits() const { return marking_->size(); }

  /// Verified bound on max_a |f(a) drift| for every possible mark.
  uint32_t DistortionBound() const { return distortion_bound_; }

  /// Budget d = ceil(1 / epsilon) the bound was checked against.
  uint32_t Budget() const { return budget_; }

  uint32_t rho() const { return rho_; }
  /// ntp(rho, G) over the parameter domain.
  size_t NumTypes() const { return type_forms_.size(); }
  /// The sorted canonical forms of those types: the planning instance's type
  /// set, which the Theorem 8 gate compares an updated structure against.
  const std::vector<std::string>& TypeForms() const { return type_forms_; }
  /// The canonical parameters S: one domain index per neighborhood type.
  /// Proposition 1: class-paired markings distort f at these parameters by
  /// exactly zero.
  const std::vector<size_t>& CanonicalParams() const { return canonical_params_; }
  /// Pairs available before epsilon-good selection.
  size_t CandidatePairs() const { return candidate_pairs_; }
  /// Random-selection attempts consumed (1 = first try succeeded).
  int TriesUsed() const { return tries_used_; }

  const PairMarking& marking() const { return *marking_; }
  const QueryIndex& index() const { return marking_->index(); }

  /// Marker M: embeds an l-bit mark (l = CapacityBits()) as a 1-local
  /// distortion of `original`.
  WeightMap Embed(const WeightMap& original, const BitVec& mark) const;

  /// Writes `mark` (one bit per pair) into `weights` in place with an
  /// explicit encoding — the hook the adversarial wrapper drives.
  void ApplyMark(const BitVec& mark, WeightMap& weights,
                 PairEncoding encoding) const {
    marking_->Apply(mark, weights, encoding);
  }

  /// Detector D, non-adversarial: recovers the mark from suspect answers.
  /// Needs the original weights (the owner has them) and indirect access to
  /// the suspect server. Strict: a pair element missing from the suspect's
  /// answers fails the whole read with kDetectionFailed.
  [[nodiscard]] Result<BitVec> Detect(const WeightMap& original, const AnswerServer& suspect) const;

  /// The pair reads (see WitnessPlan): each element is read through the
  /// first parameter whose result contains it, keyed by its active id.
  const WitnessPlan& witness_plan() const { return witness_plan_; }

  /// The weight under `weights` of every read slot's element, in slot order
  /// (2 per pair) — the reference ReadPairs subtracts.
  std::vector<Weight> SlotWeights(const WeightMap& weights) const;

 private:
  static WitnessPlan BuildWitnessPlan(const PairMarking& marking);

  LocalScheme(std::unique_ptr<PairMarking> marking, LocalSchemeOptions options)
      : marking_(std::move(marking)),
        witness_plan_(BuildWitnessPlan(*marking_)),
        options_(std::move(options)) {}

  std::unique_ptr<PairMarking> marking_;
  // Flattened from *marking_ at construction; slot ids index into the
  // marking's pair layout, so the plan is only meaningful while marking_
  // lives (it does: same object, declared just above).
  WitnessPlan witness_plan_ QPWM_VIEW_OF(marking_);
  LocalSchemeOptions options_;
  uint32_t distortion_bound_ = 0;
  uint32_t budget_ = 0;
  uint32_t rho_ = 0;
  std::vector<std::string> type_forms_;
  size_t candidate_pairs_ = 0;
  int tries_used_ = 0;
  std::vector<size_t> canonical_params_;
};

}  // namespace qpwm

#endif  // QPWM_CORE_LOCAL_SCHEME_H_
