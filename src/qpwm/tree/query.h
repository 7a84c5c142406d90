// Automaton-defined parametric queries on weighted trees (Section 4):
// W_a = B(a, T) = { b : B accepts T_ab }.
//
// EvaluateWa computes one whole answer set with a two-pass context DP
// (bottom-up states with the parameter pebble placed, then a top-down
// acceptance-context table), instead of the naive O(n^2) reruns: about
// (m + 2) * n automaton steps for m states (sink included), each two array
// loads on a StepTable, walking a TreeLayout in position order. Build the
// table once per automaton and the layout once per tree, and pass both to
// every call; the BinaryTree overloads lay the tree out per call, and the
// Dta overloads also build a table per call.
// Pebble track convention (SymbolAt): track 0 = parameter a (if any),
// track 1 (or 0 when there is no parameter) = result b. A parameter outside
// the tree places no pebble.
#ifndef QPWM_TREE_QUERY_H_
#define QPWM_TREE_QUERY_H_

#include <memory>
#include <vector>

#include "qpwm/logic/query.h"
#include "qpwm/structure/structure.h"
#include "qpwm/tree/automaton.h"
#include "qpwm/tree/bintree.h"

namespace qpwm {

/// Membership test b in W_a: one run over T_ab. `param_arity` is 0 or 1;
/// with 0, `a` is ignored and the automaton has a single (result) track.
/// The table's alphabet must be base_count x 2^(param_arity + 1). A node
/// outside the tree places no pebble.
bool MemberWa(const TreeLayout& layout, const StepTable& table, uint32_t param_arity,
              NodeId a, NodeId b);
/// Same, laying out `t` and building the StepTable of `dta` for this call
/// (a finalized tree with valid labels).
bool MemberWa(const BinaryTree& t, const std::vector<uint32_t>& base_labels,
              uint32_t base_count, const Dta& dta, uint32_t param_arity, NodeId a,
              NodeId b);

/// W_a as one flag per layout position (1 = member), via the context DP.
std::vector<uint8_t> EvaluateWaByPosition(const TreeLayout& layout,
                                          const StepTable& table,
                                          uint32_t param_arity, NodeId a);

/// Full answer set W_a (sorted node ids), via the context DP.
std::vector<NodeId> EvaluateWa(const TreeLayout& layout, const StepTable& table,
                               uint32_t param_arity, NodeId a);
/// Same, laying out `t` for this call (a finalized tree with valid labels).
std::vector<NodeId> EvaluateWa(const BinaryTree& t,
                               const std::vector<uint32_t>& base_labels,
                               uint32_t base_count, const StepTable& table,
                               uint32_t param_arity, NodeId a);
std::vector<NodeId> EvaluateWa(const BinaryTree& t,
                               const std::vector<uint32_t>& base_labels,
                               uint32_t base_count, const Dta& dta,
                               uint32_t param_arity, NodeId a);

/// Existentially projects the parameter track of a 2-track query automaton:
/// the result accepts T_b iff b is in W_a for *some* a — the active-element
/// test of Section 1, as a single 1-track automaton.
Dta ProjectParamTrack(const Dta& dta, uint32_t base_count);

/// Swaps the parameter and result pebble tracks: running the result with
/// the roles reversed enumerates, for a fixed b, every parameter a whose
/// answer set contains b (exact witness discovery for the detector).
Dta SwapPebbleTracks(const Dta& dta, uint32_t base_count);

/// A bare {S1, S2} structure with the tree's nodes as universe, so the
/// generic core machinery (QueryIndex, PairMarking, distortion checks,
/// attacks) runs unchanged on trees. LEQ is intentionally omitted (it is
/// quadratic; the automaton does not need it).
Structure TreeSkeletonStructure(const BinaryTree& t);

/// Wraps an automaton query as a ParametricQuery over the skeleton
/// structure. The returned query owns a StepTable of `dta` and captures `t`
/// and `base_labels` by reference — keep those alive.
std::unique_ptr<ParametricQuery> MakeTreeQuery(const BinaryTree& t,
                                               const std::vector<uint32_t>& base_labels,
                                               uint32_t base_count, const Dta& dta,
                                               uint32_t param_arity);

}  // namespace qpwm

#endif  // QPWM_TREE_QUERY_H_
