#include "qpwm/tree/query.h"

#include <algorithm>

#include "qpwm/util/check.h"

namespace qpwm {

bool MemberWa(const BinaryTree& t, const std::vector<uint32_t>& base_labels,
              uint32_t base_count, const StepTable& table, uint32_t param_arity,
              NodeId a, NodeId b) {
  std::vector<uint32_t> sym =
      ParamSymbols(table, base_labels, base_count, param_arity, a);
  if (b < t.size()) sym[b] += base_count << param_arity;
  return table.IsAccepting(table.Run(t, sym)[t.root()]);
}

bool MemberWa(const BinaryTree& t, const std::vector<uint32_t>& base_labels,
              uint32_t base_count, const Dta& dta, uint32_t param_arity, NodeId a,
              NodeId b) {
  return MemberWa(t, base_labels, base_count, StepTable(dta), param_arity, a, b);
}

std::vector<NodeId> EvaluateWa(const BinaryTree& t,
                               const std::vector<uint32_t>& base_labels,
                               uint32_t base_count, const StepTable& table,
                               uint32_t param_arity, NodeId a) {
  const size_t n = t.size();
  const uint32_t m = table.num_states() + 1;  // sink included
  const std::vector<uint32_t> sym =
      ParamSymbols(table, base_labels, base_count, param_arity, a);
  const uint32_t b_pebble = base_count << param_arity;

  // Pass 1: states with only the parameter pebble placed (no b).
  const std::vector<State> sa = table.Run(t, sym);

  // Pass 2 (top-down): ctx[v][q] = would the root accept if the state at v
  // were forced to q (everything else as in pass 1)? Parents come before
  // children (reverse postorder), so ctx[v] is complete when v is visited,
  // and then b = v is in W_a iff ctx[v][state of v with the b pebble set].
  std::vector<uint8_t> ctx(n * m);
  auto ctx_at = [&](NodeId v, State q) -> uint8_t& { return ctx[v * m + q]; };
  std::vector<uint8_t> member(n);

  for (State q = 0; q < m; ++q) {
    ctx_at(t.root(), q) = table.IsAccepting(q) ? 1 : 0;
  }
  const auto& post = t.Postorder();
  for (auto it = post.rbegin(); it != post.rend(); ++it) {
    NodeId v = *it;
    NodeId lc = t.left(v);
    NodeId rc = t.right(v);
    State ls = lc == kNoNode ? kAbsentChild : sa[lc];
    State rs = rc == kNoNode ? kAbsentChild : sa[rc];
    member[v] = ctx_at(v, table.Step(ls, rs, sym[v] + b_pebble));
    if (lc != kNoNode) {
      for (State q = 0; q < m; ++q) {
        ctx_at(lc, q) = ctx_at(v, table.Step(q, rs, sym[v]));
      }
    }
    if (rc != kNoNode) {
      for (State q = 0; q < m; ++q) {
        ctx_at(rc, q) = ctx_at(v, table.Step(ls, q, sym[v]));
      }
    }
  }

  // Branch-free compaction, as membership is close to a coin flip per node;
  // the spare last slot takes the writes after the last member.
  std::vector<NodeId> out(std::count(member.begin(), member.end(), uint8_t{1}) + 1);
  size_t count = 0;
  for (NodeId b = 0; b < n; ++b) {
    out[count] = b;
    count += member[b];
  }
  out.pop_back();
  return out;
}

std::vector<NodeId> EvaluateWa(const BinaryTree& t,
                               const std::vector<uint32_t>& base_labels,
                               uint32_t base_count, const Dta& dta,
                               uint32_t param_arity, NodeId a) {
  return EvaluateWa(t, base_labels, base_count, StepTable(dta), param_arity, a);
}

Dta ProjectParamTrack(const Dta& dta, uint32_t base_count) {
  QPWM_CHECK_EQ(dta.alphabet_size(), base_count * 4);
  std::vector<std::vector<uint32_t>> mapping(base_count * 4);
  for (uint32_t sym = 0; sym < mapping.size(); ++sym) {
    uint32_t base = sym % base_count;
    uint32_t bits = sym / base_count;     // bit 0 = a, bit 1 = b
    uint32_t b_bit = (bits >> 1) & 1;
    mapping[sym].push_back(base + base_count * b_bit);
  }
  return dta.ToNta().RemapSymbols(base_count * 2, mapping).Determinize().Minimize();
}

Dta SwapPebbleTracks(const Dta& dta, uint32_t base_count) {
  QPWM_CHECK_EQ(dta.alphabet_size(), base_count * 4);
  std::vector<std::vector<uint32_t>> mapping(base_count * 4);
  for (uint32_t sym = 0; sym < mapping.size(); ++sym) {
    uint32_t base = sym % base_count;
    uint32_t bits = sym / base_count;
    uint32_t swapped = ((bits & 1) << 1) | ((bits >> 1) & 1);
    mapping[sym].push_back(base + base_count * swapped);
  }
  return dta.RemapSymbols(base_count * 4, mapping);
}

Structure TreeSkeletonStructure(const BinaryTree& t) {
  Signature sig;
  size_t s1 = sig.AddRelation("S1", 2);
  size_t s2 = sig.AddRelation("S2", 2);
  Structure g(sig, t.size());
  for (NodeId v = 0; v < t.size(); ++v) {
    if (t.left(v) != kNoNode) g.AddTuple(s1, Tuple{v, t.left(v)});
    if (t.right(v) != kNoNode) g.AddTuple(s2, Tuple{v, t.right(v)});
  }
  g.Seal();
  return g;
}

std::unique_ptr<ParametricQuery> MakeTreeQuery(const BinaryTree& t,
                                               const std::vector<uint32_t>& base_labels,
                                               uint32_t base_count, const Dta& dta,
                                               uint32_t param_arity) {
  QPWM_CHECK_LE(param_arity, 1u);
  auto table = std::make_shared<const StepTable>(dta);
  auto fn = [&t, &base_labels, base_count, table, param_arity](
                const Structure&, const Tuple& params) {
    NodeId a = param_arity == 1 ? params[0] : 0;
    // qpwm-lint: allow(legacy-tuple-vector) — building the returned answer set (API contract)
    std::vector<Tuple> out;
    for (NodeId b : EvaluateWa(t, base_labels, base_count, *table, param_arity, a)) {
      out.push_back(Tuple{b});
    }
    return out;
  };
  return std::make_unique<CallbackQuery>("tree-automaton", param_arity, 1,
                                         std::move(fn));
}

}  // namespace qpwm
