// Automaton-defined parametric queries on weighted trees (Section 4):
// W_a = B(a, T) = { b : B accepts T_ab }.
//
// A TreeQuery is the query automaton compiled once: TreeQuery::Compile
// checks that the automaton reads the pebbled alphabet of its base labels
// and parameter arity, and builds its StepTable. Every run below takes a
// TreeQuery and a TreeLayout, each built once by its owner and shared by
// every call, so no run checks the automaton or builds anything per call.
//
// EvaluateWa computes one whole answer set with a two-pass context DP
// (bottom-up states with the parameter pebble placed, then a top-down
// acceptance-context table), instead of the naive O(n^2) reruns: about
// (m + 2) * n automaton steps for m states (sink included), each two array
// loads on the StepTable, walking the layout in position order.
// Pebble track convention (SymbolAt): track 0 = parameter a (if any),
// track 1 (or 0 when there is no parameter) = result b. A parameter outside
// the tree places no pebble.
#ifndef QPWM_TREE_QUERY_H_
#define QPWM_TREE_QUERY_H_

#include <cstdint>
#include <vector>

#include "qpwm/tree/automaton.h"
#include "qpwm/tree/bintree.h"
#include "qpwm/util/status.h"

namespace qpwm {

/// A query automaton checked against its pebbled alphabet and compiled into
/// a StepTable, once. Immutable, so concurrent runs share one.
class TreeQuery {
 public:
  /// Compiles `dta`, which reads base labels below `base_count` with
  /// param_arity + 1 pebble tracks (SymbolAt). InvalidArgument when
  /// `param_arity` is above 1 or the alphabet is not
  /// base_count << (param_arity + 1).
  [[nodiscard]] static Result<TreeQuery> Compile(const Dta& dta, uint32_t base_count,
                                                 uint32_t param_arity);

  uint32_t base_count() const { return base_count_; }
  /// 0 or 1.
  uint32_t param_arity() const { return param_arity_; }
  const StepTable& table() const { return table_; }

 private:
  TreeQuery(const Dta& dta, uint32_t base_count, uint32_t param_arity)
      : table_(dta), base_count_(base_count), param_arity_(param_arity) {}

  StepTable table_;
  uint32_t base_count_;
  uint32_t param_arity_;
};

// The runs below take a layout built over the query's base_count. With
// param_arity 0, `a` is ignored; a node outside the tree places no pebble.

/// Membership test b in W_a: one run over T_ab.
bool MemberWa(const TreeLayout& layout, const TreeQuery& query, NodeId a, NodeId b);

/// W_a as one flag per layout position (1 = member), via the context DP.
std::vector<uint8_t> EvaluateWaByPosition(const TreeLayout& layout,
                                          const TreeQuery& query, NodeId a);

/// Full answer set W_a (sorted node ids), via the context DP.
std::vector<NodeId> EvaluateWa(const TreeLayout& layout, const TreeQuery& query,
                               NodeId a);

/// Existentially projects the parameter track of a 2-track query automaton:
/// the result accepts T_b iff b is in W_a for *some* a — the active-element
/// test of Section 1, as a single 1-track automaton.
Dta ProjectParamTrack(const Dta& dta, uint32_t base_count);

/// Swaps the parameter and result pebble tracks: running the result with
/// the roles reversed enumerates, for a fixed b, every parameter a whose
/// answer set contains b (exact witness discovery for the detector).
Dta SwapPebbleTracks(const Dta& dta, uint32_t base_count);

}  // namespace qpwm

#endif  // QPWM_TREE_QUERY_H_
