#include "qpwm/tree/query.h"

#include "qpwm/util/check.h"

namespace qpwm {

Result<TreeQuery> TreeQuery::Compile(const Dta& dta, uint32_t base_count,
                                     uint32_t param_arity) {
  if (param_arity > 1) {
    return Status::InvalidArgument("tree queries take parameter arity 0 or 1");
  }
  if (dta.alphabet_size() != uint64_t{base_count} << (param_arity + 1)) {
    return Status::InvalidArgument(
        "automaton alphabet does not match base alphabet x pebble tracks");
  }
  return TreeQuery(dta, base_count, param_arity);
}

namespace {

/// Position of the parameter pebble: `a`'s, or none.
uint32_t ParamPos(const TreeLayout& layout, const TreeQuery& query, NodeId a) {
  return query.param_arity() == 1 ? layout.pos(a) : layout.absent();
}

}  // namespace

bool MemberWa(const TreeLayout& layout, const TreeQuery& query, NodeId a, NodeId b) {
  QPWM_CHECK_EQ(layout.base_count(), query.base_count());
  const StepTable& table = query.table();
  const uint32_t a_pos = ParamPos(layout, query, a);
  const uint32_t b_pos = layout.pos(b);
  const uint32_t b_pebble = layout.base_count() << query.param_arity();
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

std::vector<uint8_t> EvaluateWaByPosition(const TreeLayout& layout,
                                          const TreeQuery& query, NodeId a) {
  QPWM_CHECK_EQ(layout.base_count(), query.base_count());
  const StepTable& table = query.table();
  const size_t n = layout.size();
  const uint32_t m = table.num_states() + 1;  // sink included
  const uint32_t a_pos = ParamPos(layout, query, a);
  const uint32_t a_pebble = layout.base_count();
  const uint32_t b_pebble = layout.base_count() << query.param_arity();

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

std::vector<NodeId> EvaluateWa(const TreeLayout& layout, const TreeQuery& query,
                               NodeId a) {
  const std::vector<uint8_t> by_pos = EvaluateWaByPosition(layout, query, a);
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

}  // namespace qpwm
