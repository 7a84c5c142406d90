// Lemma 3: carving a Sigma-tree into disjoint regions V_1..V_n, each
// yielding a *neutral pair* (b, b') of nodes such that for every parameter
// a outside V_i, b in W_a iff b' in W_a. Each region then carries one mark
// bit via the (+1, -1) trick with zero distortion outside its own region and
// at most 1 inside — the structural guarantee behind Theorem 5.
//
// Deviation from the paper (see DESIGN.md): the paper pigeonholes a pair per
// automaton hole-state; a fixed watermark needs one pair valid for *all*
// external parameters, so we pair nodes by equality of their full
// state-signature (reachable hole-state combination -> region-root state)
// and grow regions geometrically until a signature collision appears.
#ifndef QPWM_TREE_DECOMPOSITION_H_
#define QPWM_TREE_DECOMPOSITION_H_

#include <cstdint>
#include <vector>

#include "qpwm/tree/automaton.h"
#include "qpwm/tree/bintree.h"
#include "qpwm/tree/query.h"

namespace qpwm {

/// One region of the decomposition.
struct MarkRegion {
  NodeId root = kNoNode;
  std::vector<NodeId> holes;  // roots of previously closed regions below
  std::vector<NodeId> nodes;  // V_i (excluding hole subtrees)
  NodeId b_plus = kNoNode;    // the neutral pair, if one was found
  NodeId b_minus = kNoNode;

  bool paired() const { return b_plus != kNoNode; }
};

struct DecompositionStats {
  size_t attempts = 0;        // signature searches performed
  size_t paired = 0;          // regions that yielded a pair
  size_t unpaired = 0;        // regions closed without a pair
  size_t covered_nodes = 0;   // nodes inside any region
};

struct DecompositionOptions {
  /// Keyed shuffle of pair candidates (the owner's secret drives this).
  uint64_t shuffle_seed = 0;
  /// Smallest region size at which a pair search is attempted.
  /// 0 = min(2 * (automaton states + 1), 8): Lemma 3's 2m threshold
  /// guarantees a pigeonhole pair, but the signature search verifies
  /// collisions directly, so trying small regions first only adds capacity
  /// (failed regions regrow geometrically).
  size_t min_region_size = 0;
  /// Regions larger than this close unpaired (bounds the search cost).
  /// 0 = 64 * (automaton states + 1).
  size_t max_region_size = 0;
};

/// Runs the decomposition for `query` over `layout` (built over the
/// query's base labels). Regions are returned in discovery (bottom-up)
/// order. `candidate_filter`, when non-null, holds one flag per node id and
/// restricts pair candidates to nodes with a true flag (e.g. the active
/// weighted elements, so every pair is readable through some answer set).
///
/// Each search attempt computes every hole-state combination's region
/// states once; a candidate b then changes only the states on the path
/// from b up to the region root, so only that path is rerun per candidate.
std::vector<MarkRegion> FindMarkRegions(const TreeLayout& layout, const TreeQuery& query,
                                        const DecompositionOptions& options,
                                        DecompositionStats* stats,
                                        const std::vector<bool>* candidate_filter =
                                            nullptr);

}  // namespace qpwm

#endif  // QPWM_TREE_DECOMPOSITION_H_
