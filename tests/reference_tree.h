// Test-only reference tree planning: the node-id-order automaton runs and
// the full-rerun region search the library used before the postorder
// layout, kept as oracles for StepTable::Run, EvaluateWa, FindMarkRegions
// and TreeScheme::Plan's pairs.
//
//  * Runs visit t.Postorder() and index every per-node array by node id,
//    with one symbol per node built up front (and checked per node).
//  * The region search collects each candidate region with a stack walk and
//    a postorder sort, and recomputes every region node's state for every
//    (candidate, hole-state combination), through hash-map lookups of holes
//    and nodes; signatures are heap vectors keyed in a std::map.
//  * The witness pool evaluates every pooled candidate's answer set up front.
#ifndef QPWM_TESTS_REFERENCE_TREE_H_
#define QPWM_TESTS_REFERENCE_TREE_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "qpwm/core/tree_scheme.h"
#include "qpwm/tree/automaton.h"
#include "qpwm/tree/bintree.h"
#include "qpwm/tree/decomposition.h"
#include "qpwm/tree/query.h"
#include "qpwm/util/check.h"
#include "qpwm/util/random.h"

namespace qpwm {

/// Per-node symbols: the parameter pebble on `a` (none when param_arity is 0
/// or `a` is not a node), no result pebble.
inline std::vector<uint32_t> IdOrderParamSymbols(const StepTable& table,
                                                 const std::vector<uint32_t>& labels,
                                                 uint32_t base_count,
                                                 uint32_t param_arity, NodeId a) {
  QPWM_CHECK_LE(param_arity, 1u);
  QPWM_CHECK_EQ(table.alphabet_size(), base_count << (param_arity + 1));
  std::vector<uint32_t> sym(labels.size());
  for (NodeId v = 0; v < labels.size(); ++v) {
    QPWM_CHECK_LT(labels[v], base_count);
    sym[v] = SymbolAt(labels[v], base_count, param_arity, param_arity == 1 && v == a,
                      false);
  }
  return sym;
}

/// Bottom-up run; returns the per-node states, indexed by node id.
inline std::vector<State> IdOrderRun(const StepTable& table, const BinaryTree& t,
                                     const std::vector<uint32_t>& symbols) {
  QPWM_CHECK_EQ(symbols.size(), t.size());
  std::vector<State> state(t.size());
  for (NodeId v : t.Postorder()) {
    QPWM_CHECK_LT(symbols[v], table.alphabet_size());
    State l = t.left(v) == kNoNode ? kAbsentChild : state[t.left(v)];
    State r = t.right(v) == kNoNode ? kAbsentChild : state[t.right(v)];
    state[v] = table.Step(l, r, symbols[v]);
  }
  return state;
}

inline bool IdOrderMemberWa(const BinaryTree& t, const std::vector<uint32_t>& labels,
                            uint32_t base_count, const StepTable& table,
                            uint32_t param_arity, NodeId a, NodeId b) {
  std::vector<uint32_t> sym = IdOrderParamSymbols(table, labels, base_count, param_arity, a);
  if (b < t.size()) sym[b] += base_count << param_arity;
  return table.IsAccepting(IdOrderRun(table, t, sym)[t.root()]);
}

/// W_a (sorted node ids) by the two-pass context DP over node-id arrays.
inline std::vector<NodeId> IdOrderEvaluateWa(const BinaryTree& t,
                                             const std::vector<uint32_t>& labels,
                                             uint32_t base_count, const StepTable& table,
                                             uint32_t param_arity, NodeId a) {
  const size_t n = t.size();
  const uint32_t m = table.num_states() + 1;
  const std::vector<uint32_t> sym =
      IdOrderParamSymbols(table, labels, base_count, param_arity, a);
  const uint32_t b_pebble = base_count << param_arity;
  const std::vector<State> sa = IdOrderRun(table, t, sym);
  std::vector<uint8_t> ctx(n * m);
  auto ctx_at = [&](NodeId v, State q) -> uint8_t& { return ctx[v * m + q]; };
  std::vector<uint8_t> member(n);
  for (State q = 0; q < m; ++q) ctx_at(t.root(), q) = table.IsAccepting(q) ? 1 : 0;
  const auto& post = t.Postorder();
  for (auto it = post.rbegin(); it != post.rend(); ++it) {
    NodeId v = *it;
    NodeId lc = t.left(v);
    NodeId rc = t.right(v);
    State ls = lc == kNoNode ? kAbsentChild : sa[lc];
    State rs = rc == kNoNode ? kAbsentChild : sa[rc];
    member[v] = ctx_at(v, table.Step(ls, rs, sym[v] + b_pebble));
    if (lc != kNoNode) {
      for (State q = 0; q < m; ++q) ctx_at(lc, q) = ctx_at(v, table.Step(q, rs, sym[v]));
    }
    if (rc != kNoNode) {
      for (State q = 0; q < m; ++q) ctx_at(rc, q) = ctx_at(v, table.Step(ls, q, sym[v]));
    }
  }
  std::vector<NodeId> out;
  for (NodeId b = 0; b < n; ++b) {
    if (member[b]) out.push_back(b);
  }
  return out;
}

/// The region search with a full rerun of the region per candidate and
/// hole-state combination.
inline std::vector<MarkRegion> FullRerunFindMarkRegions(
    const BinaryTree& t, const std::vector<uint32_t>& labels, uint32_t base_count,
    const StepTable& table, uint32_t param_arity, const DecompositionOptions& options,
    DecompositionStats* stats, const std::vector<bool>* candidate_filter = nullptr) {
  const size_t n = t.size();
  const size_t m_plus = table.num_states() + 1;
  const size_t min_size = options.min_region_size > 0 ? options.min_region_size
                                                      : std::min<size_t>(2 * m_plus, 8);
  const size_t max_size =
      options.max_region_size > 0 ? options.max_region_size : 64 * m_plus;
  Rng rng(options.shuffle_seed);

  const std::vector<uint32_t> quiet_sym =
      IdOrderParamSymbols(table, labels, base_count, param_arity, kNoNode);
  const std::vector<State> s0 = IdOrderRun(table, t, quiet_sym);
  std::vector<std::vector<State>> ach(param_arity == 1 ? n : 0);
  if (param_arity == 1) {
    for (NodeId v : t.Postorder()) {
      State l = t.left(v) == kNoNode ? kAbsentChild : s0[t.left(v)];
      State r = t.right(v) == kNoNode ? kAbsentChild : s0[t.right(v)];
      std::vector<State>& out = ach[v];
      out.push_back(table.Step(l, r, SymbolAt(labels[v], base_count, 1, true, false)));
      if (t.left(v) != kNoNode) {
        for (State q : ach[t.left(v)]) out.push_back(table.Step(q, r, quiet_sym[v]));
      }
      if (t.right(v) != kNoNode) {
        for (State q : ach[t.right(v)]) out.push_back(table.Step(l, q, quiet_sym[v]));
      }
      std::sort(out.begin(), out.end());
      out.erase(std::unique(out.begin(), out.end()), out.end());
    }
  }

  std::vector<bool> assigned(n, false);
  std::vector<bool> region_root(n, false);
  std::vector<size_t> unassigned(n, 0);
  std::vector<size_t> attempted(n, 0);
  std::vector<uint32_t> post_pos(n);
  for (uint32_t i = 0; i < t.Postorder().size(); ++i) post_pos[t.Postorder()[i]] = i;
  std::vector<MarkRegion> regions;

  auto collect_region = [&](NodeId v, std::vector<NodeId>& nodes,
                            std::vector<NodeId>& holes) {
    std::vector<NodeId> stack{v};
    while (!stack.empty()) {
      NodeId w = stack.back();
      stack.pop_back();
      if (assigned[w]) {
        holes.push_back(w);
        QPWM_CHECK(region_root[w]);
        continue;
      }
      nodes.push_back(w);
      if (t.left(w) != kNoNode) stack.push_back(t.left(w));
      if (t.right(w) != kNoNode) stack.push_back(t.right(w));
    }
    std::sort(nodes.begin(), nodes.end(),
              [&](NodeId a, NodeId b) { return post_pos[a] < post_pos[b]; });
  };

  auto find_pair = [&](NodeId v, const std::vector<NodeId>& nodes,
                       const std::vector<NodeId>& holes, NodeId& b_plus,
                       NodeId& b_minus) {
    if (stats != nullptr) ++stats->attempts;
    std::vector<std::vector<State>> combos;
    std::vector<State> quiet(holes.size());
    for (size_t h = 0; h < holes.size(); ++h) quiet[h] = s0[holes[h]];
    combos.push_back(quiet);
    if (param_arity == 1) {
      for (size_t h = 0; h < holes.size(); ++h) {
        for (State q : ach[holes[h]]) {
          if (q == s0[holes[h]]) continue;
          std::vector<State> combo = quiet;
          combo[h] = q;
          combos.push_back(std::move(combo));
        }
      }
    }
    std::unordered_map<NodeId, size_t> hole_index;
    for (size_t h = 0; h < holes.size(); ++h) hole_index.emplace(holes[h], h);
    std::unordered_map<NodeId, size_t> node_index;
    for (size_t i = 0; i < nodes.size(); ++i) node_index.emplace(nodes[i], i);

    std::vector<NodeId> candidates;
    for (NodeId w : nodes) {
      if (candidate_filter == nullptr || (*candidate_filter)[w]) candidates.push_back(w);
    }
    rng.Shuffle(candidates);

    std::map<std::vector<State>, NodeId> seen;
    std::vector<State> state(nodes.size());
    for (NodeId b : candidates) {
      std::vector<State> signature;
      for (const auto& combo : combos) {
        for (size_t i = 0; i < nodes.size(); ++i) {
          NodeId w = nodes[i];
          auto child_state = [&](NodeId c) -> State {
            if (c == kNoNode) return kAbsentChild;
            auto hit = hole_index.find(c);
            if (hit != hole_index.end()) return combo[hit->second];
            return state[node_index.at(c)];
          };
          uint32_t sym = SymbolAt(labels[w], base_count, param_arity, false, w == b);
          state[i] = table.Step(child_state(t.left(w)), child_state(t.right(w)), sym);
        }
        signature.push_back(state[node_index.at(v)]);
      }
      auto [it, inserted] = seen.emplace(std::move(signature), b);
      if (!inserted) {
        b_plus = it->second;
        b_minus = b;
        return true;
      }
    }
    return false;
  };

  auto close_region = [&](NodeId v, std::vector<NodeId> nodes, std::vector<NodeId> holes,
                          NodeId b_plus, NodeId b_minus) {
    for (NodeId w : nodes) assigned[w] = true;
    region_root[v] = true;
    unassigned[v] = 0;
    attempted[v] = 0;
    if (stats != nullptr) {
      stats->covered_nodes += nodes.size();
      if (b_plus != kNoNode) {
        ++stats->paired;
      } else {
        ++stats->unpaired;
      }
    }
    MarkRegion region;
    region.root = v;
    region.holes = std::move(holes);
    region.nodes = std::move(nodes);
    region.b_plus = b_plus;
    region.b_minus = b_minus;
    regions.push_back(std::move(region));
  };

  for (NodeId v : t.Postorder()) {
    size_t count = 1;
    size_t last_attempt = 0;
    if (t.left(v) != kNoNode) {
      count += unassigned[t.left(v)];
      last_attempt = std::max(last_attempt, attempted[t.left(v)]);
    }
    if (t.right(v) != kNoNode) {
      count += unassigned[t.right(v)];
      last_attempt = std::max(last_attempt, attempted[t.right(v)]);
    }
    unassigned[v] = count;
    attempted[v] = last_attempt;
    if (count < min_size) continue;
    if (count < 2 * last_attempt && count <= max_size) continue;

    std::vector<NodeId> nodes, holes;
    collect_region(v, nodes, holes);
    QPWM_CHECK_EQ(nodes.size(), count);
    NodeId b_plus = kNoNode, b_minus = kNoNode;
    if (find_pair(v, nodes, holes, b_plus, b_minus)) {
      close_region(v, std::move(nodes), std::move(holes), b_plus, b_minus);
    } else if (count > max_size) {
      close_region(v, std::move(nodes), std::move(holes), kNoNode, kNoNode);
    } else {
      attempted[v] = count;
    }
  }
  return regions;
}

/// TreeScheme::Plan's pairs as (b_plus, b_minus, witness), planned with the
/// full-rerun region search and a witness pool evaluated up front.
inline std::vector<TreeScheme::DetectablePair> EagerPoolPairs(
    const BinaryTree& t, const std::vector<uint32_t>& labels, uint32_t base_count,
    const Dta& dta, uint32_t param_arity, const TreeSchemeOptions& options) {
  const StepTable query(dta);
  std::vector<bool> active(t.size(), false);
  {
    std::optional<StepTable> projected;
    if (param_arity == 1) projected.emplace(ProjectParamTrack(dta, base_count));
    const StepTable& exists_a = projected ? *projected : query;
    for (NodeId b : IdOrderEvaluateWa(t, labels, base_count, exists_a, 0, 0)) {
      active[b] = true;
    }
  }
  DecompositionOptions dopts;
  dopts.shuffle_seed = options.key.Derive(0xDEC0).k0;
  const std::vector<MarkRegion> regions = FullRerunFindMarkRegions(
      t, labels, base_count, query, param_arity, dopts, nullptr, &active);

  std::vector<NodeId> region_of(t.size(), kNoNode);
  for (size_t i = 0; i < regions.size(); ++i) {
    for (NodeId w : regions[i].nodes) region_of[w] = static_cast<NodeId>(i);
  }
  std::vector<std::pair<NodeId, std::vector<bool>>> pool;
  if (param_arity == 1) {
    Rng witness_rng(options.key.Derive(0x317).k0);
    std::vector<NodeId> candidates{t.root()};
    for (size_t i = 0; i + 1 < options.witness_attempts; ++i) {
      candidates.push_back(static_cast<NodeId>(witness_rng.Below(t.size())));
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());
    for (NodeId a : candidates) {
      std::vector<bool> member(t.size(), false);
      for (NodeId b : IdOrderEvaluateWa(t, labels, base_count, query, 1, a)) {
        member[b] = true;
      }
      pool.emplace_back(a, std::move(member));
    }
  }

  std::vector<TreeScheme::DetectablePair> pairs;
  std::optional<StepTable> swapped;
  for (size_t r = 0; r < regions.size(); ++r) {
    const MarkRegion& region = regions[r];
    if (!region.paired()) continue;
    if (param_arity == 0) {
      if (IdOrderMemberWa(t, labels, base_count, query, 0, 0, region.b_plus)) {
        pairs.push_back({region.b_plus, region.b_minus, Tuple{}});
      }
      continue;
    }
    bool found = false;
    for (const auto& [a, member] : pool) {
      if (region_of[a] == static_cast<NodeId>(r) || !member[region.b_plus]) continue;
      pairs.push_back({region.b_plus, region.b_minus, Tuple{a}});
      found = true;
      break;
    }
    if (found) continue;
    if (!swapped) swapped.emplace(SwapPebbleTracks(dta, base_count));
    for (NodeId a : IdOrderEvaluateWa(t, labels, base_count, *swapped, 1, region.b_plus)) {
      if (region_of[a] == static_cast<NodeId>(r)) continue;
      pairs.push_back({region.b_plus, region.b_minus, Tuple{a}});
      break;
    }
  }
  return pairs;
}

}  // namespace qpwm

#endif  // QPWM_TESTS_REFERENCE_TREE_H_
