#include "qpwm/tree/decomposition.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "qpwm/util/check.h"
#include "qpwm/util/random.h"

namespace qpwm {
std::vector<MarkRegion> FindMarkRegions(const BinaryTree& t,
                                        const std::vector<uint32_t>& labels,
                                        uint32_t base_count, const StepTable& table,
                                        uint32_t param_arity,
                                        const DecompositionOptions& options,
                                        DecompositionStats* stats,
                                        const std::vector<bool>* candidate_filter) {
  const size_t n = t.size();
  const size_t m_plus = table.num_states() + 1;
  const size_t min_size = options.min_region_size > 0
                              ? options.min_region_size
                              : std::min<size_t>(2 * m_plus, 8);
  const size_t max_size =
      options.max_region_size > 0 ? options.max_region_size : 64 * m_plus;
  Rng rng(options.shuffle_seed);

  // --- Global DP: s0 (no pebbles) and, with a parameter, ach(v) = states at
  // v achievable with the a pebble somewhere in subtree(v).
  const std::vector<uint32_t> quiet_sym =
      ParamSymbols(table, labels, base_count, param_arity, kNoNode);
  const std::vector<State> s0 = table.Run(t, quiet_sym);
  // ach(v), sorted and deduplicated, is ach_states[ach_range[v].first,
  // ach_range[v].second): one flat array rather than a heap vector per node.
  std::vector<State> ach_states;
  std::vector<std::pair<uint32_t, uint32_t>> ach_range(param_arity == 1 ? n : 0);
  if (param_arity == 1) {
    for (NodeId v : t.Postorder()) {
      State l = t.left(v) == kNoNode ? kAbsentChild : s0[t.left(v)];
      State r = t.right(v) == kNoNode ? kAbsentChild : s0[t.right(v)];
      const auto begin = static_cast<uint32_t>(ach_states.size());
      // a at v itself:
      uint32_t sym_a = SymbolAt(labels[v], base_count, param_arity, true, false);
      ach_states.push_back(table.Step(l, r, sym_a));
      // a in the left subtree:
      if (t.left(v) != kNoNode) {
        const auto [first, last] = ach_range[t.left(v)];
        for (uint32_t i = first; i < last; ++i) {
          ach_states.push_back(table.Step(ach_states[i], r, quiet_sym[v]));
        }
      }
      // a in the right subtree:
      if (t.right(v) != kNoNode) {
        const auto [first, last] = ach_range[t.right(v)];
        for (uint32_t i = first; i < last; ++i) {
          ach_states.push_back(table.Step(l, ach_states[i], quiet_sym[v]));
        }
      }
      std::sort(ach_states.begin() + begin, ach_states.end());
      ach_states.erase(std::unique(ach_states.begin() + begin, ach_states.end()),
                       ach_states.end());
      ach_range[v] = {begin, static_cast<uint32_t>(ach_states.size())};
    }
  }

  // --- Bottom-up sweep.
  std::vector<bool> assigned(n, false);      // node sits in a closed region
  std::vector<bool> region_root(n, false);   // node is a closed region's root
  std::vector<size_t> unassigned(n, 0);      // unassigned nodes in subtree
  std::vector<size_t> attempted(n, 0);       // size at last failed attempt

  // Postorder position, for ordering region nodes children-first.
  std::vector<uint32_t> post_pos(n);
  for (uint32_t i = 0; i < t.Postorder().size(); ++i) post_pos[t.Postorder()[i]] = i;

  std::vector<MarkRegion> regions;

  // Collects the unassigned nodes and holes of the candidate region at v.
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

  // Tries to find a neutral pair in the candidate region; returns true on
  // success and fills b_plus / b_minus.
  auto find_pair = [&](NodeId v, const std::vector<NodeId>& nodes,
                       const std::vector<NodeId>& holes, NodeId& b_plus,
                       NodeId& b_minus) {
    if (stats != nullptr) ++stats->attempts;

    // Reachable hole-state combinations: the all-quiet one, plus (when the
    // query has a parameter) each single hole carrying the pebble.
    // combos[c] maps hole index -> state.
    std::vector<std::vector<State>> combos;
    std::vector<State> quiet(holes.size());
    for (size_t h = 0; h < holes.size(); ++h) quiet[h] = s0[holes[h]];
    combos.push_back(quiet);
    if (param_arity == 1) {
      for (size_t h = 0; h < holes.size(); ++h) {
        const auto [first, last] = ach_range[holes[h]];
        for (uint32_t i = first; i < last; ++i) {
          const State q = ach_states[i];
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

    // Candidate order is keyed: the attacker cannot predict which collision
    // pair carries the bit.
    std::vector<NodeId> candidates;
    for (NodeId w : nodes) {
      if (candidate_filter == nullptr || (*candidate_filter)[w]) candidates.push_back(w);
    }
    rng.Shuffle(candidates);

    std::map<std::vector<State>, NodeId> seen;
    std::vector<State> state(nodes.size());
    for (NodeId b : candidates) {
      std::vector<State> signature;
      signature.reserve(combos.size());
      for (const auto& combo : combos) {
        for (size_t i = 0; i < nodes.size(); ++i) {
          NodeId w = nodes[i];
          auto child_state = [&](NodeId c) -> State {
            if (c == kNoNode) return kAbsentChild;
            auto hit = hole_index.find(c);
            if (hit != hole_index.end()) return combo[hit->second];
            return state[node_index.at(c)];
          };
          uint32_t sym =
              SymbolAt(labels[w], base_count, param_arity, false, w == b);
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

  auto close_region = [&](NodeId v, std::vector<NodeId> nodes,
                          std::vector<NodeId> holes, NodeId b_plus, NodeId b_minus) {
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
    // Geometric retry: only search again once the region has doubled since
    // the last failure on this path (keeps total work near-linear).
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

std::vector<MarkRegion> FindMarkRegions(const BinaryTree& t,
                                        const std::vector<uint32_t>& labels,
                                        uint32_t base_count, const Dta& dta,
                                        uint32_t param_arity,
                                        const DecompositionOptions& options,
                                        DecompositionStats* stats,
                                        const std::vector<bool>* candidate_filter) {
  return FindMarkRegions(t, labels, base_count, StepTable(dta), param_arity, options,
                         stats, candidate_filter);
}

}  // namespace qpwm
