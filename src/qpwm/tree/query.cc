#include "qpwm/tree/query.h"

#include "qpwm/util/check.h"

namespace qpwm {

namespace {

void CheckQueryAlphabet(const TreeLayout& layout, const StepTable& table,
                        uint32_t param_arity) {
  QPWM_CHECK_LE(param_arity, 1u);
  QPWM_CHECK_EQ(table.alphabet_size(), layout.base_count() << (param_arity + 1));
}

/// Position of the parameter pebble: `a`'s, or none.
uint32_t ParamPos(const TreeLayout& layout, uint32_t param_arity, NodeId a) {
  return param_arity == 1 ? layout.pos(a) : layout.absent();
}

}  // namespace

bool MemberWa(const TreeLayout& layout, const StepTable& table, uint32_t param_arity,
              NodeId a, NodeId b) {
  CheckQueryAlphabet(layout, table, param_arity);
  const uint32_t a_pos = ParamPos(layout, param_arity, a);
  const uint32_t b_pos = layout.pos(b);
  const uint32_t b_pebble = layout.base_count() << param_arity;
  // StepTable::Run places one pebble; this pass places both.
  const size_t n = layout.size();
  std::vector<State> state(n + 1);
  state[n] = kAbsentChild;
  for (uint32_t p = 0; p < n; ++p) {
    const uint32_t sym = layout.label(p) + (p == a_pos ? layout.base_count() : 0) +
                         (p == b_pos ? b_pebble : 0);
    state[p] = table.Step(state[layout.left(p)], state[layout.right(p)], sym);
  }
  return table.IsAccepting(state[n - 1]);
}

bool MemberWa(const BinaryTree& t, const std::vector<uint32_t>& base_labels,
              uint32_t base_count, const Dta& dta, uint32_t param_arity, NodeId a,
              NodeId b) {
  return MemberWa(TreeLayout::Build(t, base_labels, base_count).ValueOrDie(),
                  StepTable(dta), param_arity, a, b);
}

std::vector<uint8_t> EvaluateWaByPosition(const TreeLayout& layout,
                                          const StepTable& table,
                                          uint32_t param_arity, NodeId a) {
  CheckQueryAlphabet(layout, table, param_arity);
  const size_t n = layout.size();
  const uint32_t m = table.num_states() + 1;  // sink included
  const uint32_t a_pos = ParamPos(layout, param_arity, a);
  const uint32_t a_pebble = layout.base_count();
  const uint32_t b_pebble = layout.base_count() << param_arity;

  // Pass 1: states with only the parameter pebble placed (no b).
  const std::vector<State> sa = table.Run(layout, a_pos, a_pebble);

  // Pass 2 (top-down): ctx[p][q] = would the root accept if the state at p
  // were forced to q (everything else as in pass 1)? Positions run from the
  // root down, parents before children, so ctx[p] is complete when p is
  // visited, and then b = p is in W_a iff ctx[p][state of p with the b
  // pebble set].
  // An absent child's context goes to a spare row at absent(), which is
  // never read: cheaper than a branch that mispredicts on most nodes.
  std::vector<uint8_t> ctx((n + 1) * m);
  std::vector<uint8_t> member(n);
  for (State q = 0; q < m; ++q) ctx[(n - 1) * m + q] = table.IsAccepting(q) ? 1 : 0;
  for (uint32_t p = static_cast<uint32_t>(n); p-- > 0;) {
    const uint32_t left = layout.left(p);
    const uint32_t right = layout.right(p);
    const uint32_t sym = layout.label(p) + (p == a_pos ? a_pebble : 0);
    const State ls = sa[left];
    const State rs = sa[right];
    const uint8_t* here = &ctx[size_t{p} * m];
    member[p] = here[table.Step(ls, rs, sym + b_pebble)];
    uint8_t* lc = &ctx[size_t{left} * m];
    for (State q = 0; q < m; ++q) lc[q] = here[table.Step(q, rs, sym)];
    uint8_t* rc = &ctx[size_t{right} * m];
    for (State q = 0; q < m; ++q) rc[q] = here[table.Step(ls, q, sym)];
  }
  return member;
}

std::vector<NodeId> EvaluateWa(const TreeLayout& layout, const StepTable& table,
                               uint32_t param_arity, NodeId a) {
  const std::vector<uint8_t> by_pos = EvaluateWaByPosition(layout, table, param_arity, a);
  const size_t n = layout.size();
  std::vector<uint8_t> member(n);
  size_t members = 0;
  for (uint32_t p = 0; p < n; ++p) {
    member[layout.id(p)] = by_pos[p];
    members += by_pos[p];
  }
  // Branch-free compaction, as membership is close to a coin flip per node;
  // the spare last slot takes the writes after the last member.
  std::vector<NodeId> out(members + 1);
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
                               uint32_t base_count, const StepTable& table,
                               uint32_t param_arity, NodeId a) {
  return EvaluateWa(TreeLayout::Build(t, base_labels, base_count).ValueOrDie(), table,
                    param_arity, a);
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
