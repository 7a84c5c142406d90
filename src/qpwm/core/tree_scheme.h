// The watermarking scheme of Theorems 4/5: automaton-definable (hence
// MSO-definable, via CompileMso) queries on weighted trees.
//
// Planning finds Lemma 3 regions with neutral pairs (FindMarkRegions), then
// locates, for every pair, a *witness parameter* outside the region whose
// answer set contains the pair — the detector reads the pair's suspect
// weights through that witness query. Pairs without a witness are dropped
// (their bits would be invisible through answers). The realized global
// distortion of every mark is at most 1: pairs cancel exactly for parameters
// outside their region, and a parameter inside one region meets only that
// region's pair.
#ifndef QPWM_CORE_TREE_SCHEME_H_
#define QPWM_CORE_TREE_SCHEME_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "qpwm/core/answers.h"
#include "qpwm/core/pairs.h"
#include "qpwm/structure/weighted.h"
#include "qpwm/tree/automaton.h"
#include "qpwm/tree/bintree.h"
#include "qpwm/tree/decomposition.h"
#include "qpwm/tree/query.h"
#include "qpwm/util/bitvec.h"
#include "qpwm/util/hash.h"
#include "qpwm/util/status.h"
#include "qpwm/util/thread_annotations.h"

namespace qpwm {

struct TreeSchemeOptions {
  /// Owner's secret key (candidate shuffles, witness probing order).
  PrfKey key;
  /// Size of the witness pool: the root plus witness_attempts - 1 keyed
  /// random nodes, probed in node-id order for each pair before the exact
  /// reverse run. The pool is evaluated lazily: nothing is computed for a
  /// pooled parameter until a pair probes it (one membership run on the
  /// first probe, its whole answer set from the second on), so entries
  /// after the one that serves a pair cost nothing.
  size_t witness_attempts = 16;
  PairEncoding encoding = PairEncoding::kOnOff;
};

/// A server honestly answering the automaton query over a weighted tree.
/// It compiles the query and lays the tree out once, at construction (so
/// neither the tree, the labels nor `dta` need outlive it), and serves
/// batches flat: AnswerAllFlat writes unary rows straight into the batch,
/// with no AnswerSet in between. A parameter of the wrong arity, or a node
/// outside the tree, gets an empty answer; so does every parameter when the
/// automaton does not compile (TreeQuery::Compile) or the tree cannot be
/// laid out (it is empty or was never finalized, or a label is outside the
/// base alphabet).
class HonestTreeServer : public BatchAnswerServer {
 public:
  HonestTreeServer(const BinaryTree& t, const std::vector<uint32_t>& labels,
                   uint32_t base_count, const Dta& dta, uint32_t param_arity,
                   WeightMap weights);

  AnswerSet Answer(const Tuple& params) const override;
  void AnswerAllFlat(const std::vector<Tuple>& params,
                     FlatAnswerBatch& out) const override;

 private:
  /// W_a for `params`; empty for a wrong-arity or out-of-tree parameter.
  std::vector<NodeId> Evaluate(const Tuple& params) const;

  // Both empty unless the query compiles and the tree has a layout.
  std::optional<TreeQuery> query_;
  std::optional<TreeLayout> layout_;
  WeightMap weights_;
};

/// Planned marker/detector for one (tree, automaton query) instance.
class TreeScheme {
 public:
  /// `dta` track convention: track 0 = parameter (if param_arity == 1), next
  /// track = result node. InvalidArgument when the automaton does not
  /// compile (TreeQuery::Compile), or the tree is not finalized or has a
  /// label not below `base_count`. The tree, the labels and the automaton
  /// are only read during Plan.
  [[nodiscard]] static Result<TreeScheme> Plan(const BinaryTree& t,
                                 const std::vector<uint32_t>& labels,
                                 uint32_t base_count, const Dta& dta,
                                 uint32_t param_arity,
                                 const TreeSchemeOptions& options);

  /// Hidden bits: pairs with a detection witness.
  size_t CapacityBits() const { return pairs_.size(); }
  /// Structural bound on max_a |f(a) drift| for every mark.
  Weight DistortionBound() const { return pairs_.empty() ? 0 : 1; }

  size_t RegionsPaired() const { return stats_.paired; }
  size_t RegionsUnpaired() const { return stats_.unpaired; }
  const DecompositionStats& stats() const { return stats_; }
  const std::vector<MarkRegion>& regions() const { return regions_; }

  /// Marker: 1-local distortion embedding an l-bit mark.
  WeightMap Embed(const WeightMap& original, const BitVec& mark) const;

  /// Writes `mark` into `weights` in place with an explicit encoding — the
  /// hook the adversarial wrapper drives (one bit per pair).
  void ApplyMark(const BitVec& mark, WeightMap& weights, PairEncoding encoding) const;

  /// Detector (non-adversarial): recovers the mark from suspect answers.
  /// Strict: a pair node missing from its witness answer fails the whole
  /// read with kDetectionFailed.
  [[nodiscard]] Result<BitVec> Detect(const WeightMap& original, const AnswerServer& suspect) const;

  /// One hidden bit's pair: the node a set bit moves up, the node it moves
  /// down, and the witness parameter outside the pair's region whose answer
  /// contains both — the detector reads the pair through that witness.
  struct DetectablePair {
    NodeId b_plus;
    NodeId b_minus;
    Tuple witness;
  };
  /// The pairs, one per hidden bit, in bit order.
  const std::vector<DetectablePair>& pairs() const { return pairs_; }

  /// The pair reads (see WitnessPlan), keyed by node id.
  const WitnessPlan& witness_plan() const { return witness_plan_; }

  /// The weight under `weights` of every read slot's node, in slot order
  /// (2 per pair) — the reference ReadPairs subtracts.
  std::vector<Weight> SlotWeights(const WeightMap& weights) const;

 private:
  TreeScheme() = default;

  TreeSchemeOptions options_;
  std::vector<MarkRegion> regions_;
  DecompositionStats stats_;
  std::vector<DetectablePair> pairs_;
  // Built from pairs_ at the end of Plan(); read slots index into pairs_'s
  // layout, so the plan is valid only while pairs_ (declared above, same
  // object) is alive and unmodified.
  WitnessPlan witness_plan_ QPWM_VIEW_OF(pairs_);
};

}  // namespace qpwm

#endif  // QPWM_CORE_TREE_SCHEME_H_
