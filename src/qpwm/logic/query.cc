#include "qpwm/logic/query.h"

#include <algorithm>

#include "qpwm/logic/evaluator.h"
#include "qpwm/logic/locality.h"
#include "qpwm/util/check.h"
#include "qpwm/util/str.h"

namespace qpwm {

std::vector<Tuple> AllParams(const Structure& g, uint32_t r) {
  // qpwm-lint: allow(legacy-tuple-vector) — building the returned parameter list (API contract)
  std::vector<Tuple> out;
  const size_t n = g.universe_size();
  if (r == 0) {
    out.push_back(Tuple{});
    return out;
  }
  size_t total = 1;
  for (uint32_t i = 0; i < r; ++i) total *= n;
  out.reserve(total);
  Tuple t(r, 0);
  for (;;) {
    out.push_back(t);
    uint32_t pos = r;
    while (pos > 0) {
      --pos;
      if (++t[pos] < n) break;
      t[pos] = 0;
      if (pos == 0) return out;
    }
  }
}

FormulaQuery::FormulaQuery(FormulaPtr f, std::vector<std::string> param_vars,
                           std::vector<std::string> result_vars)
    : formula_(std::move(f)),
      param_vars_(std::move(param_vars)),
      result_vars_(std::move(result_vars)) {
  auto free_vars = formula_->FreeVars();
  for (const auto& v : free_vars) {
    bool covered =
        std::find(param_vars_.begin(), param_vars_.end(), v) != param_vars_.end() ||
        std::find(result_vars_.begin(), result_vars_.end(), v) != result_vars_.end();
    QPWM_CHECK(covered);
  }
  QPWM_CHECK(formula_->FreeSetVars().empty());
}

BoundQuery FormulaQuery::Bind(const Structure& g) const {
  // qpwm-lint: allow(view-escape) — bound queries read the structure they were bound to (query.h)
  return [this, &g](const Tuple& params) {
    QPWM_CHECK_EQ(params.size(), param_vars_.size());
    Evaluator ev(g);
    Environment env;
    for (size_t i = 0; i < param_vars_.size(); ++i) env.elems[param_vars_[i]] = params[i];

    // qpwm-lint: allow(legacy-tuple-vector) — building the returned answer set (API contract)
    std::vector<Tuple> out;
    const uint32_t s = ResultArity();
    Tuple v(s, 0);
    const size_t n = g.universe_size();
    if (n == 0) return out;
    for (;;) {
      for (size_t i = 0; i < s; ++i) env.elems[result_vars_[i]] = v[i];
      if (ev.MustEval(*formula_, env)) out.push_back(v);
      uint32_t pos = s;
      bool done = s == 0;
      while (pos > 0) {
        --pos;
        if (static_cast<size_t>(++v[pos]) < n) break;
        v[pos] = 0;
        if (pos == 0) done = true;
      }
      if (done) break;
    }
    return out;
  };
}

std::optional<uint32_t> FormulaQuery::LocalityRank() const {
  return GaifmanLocalityBound(formula_->QuantifierRank());
}

AtomQuery::AtomQuery(std::string relation, std::vector<Arg> args, uint32_t r, uint32_t s)
    : relation_(std::move(relation)), args_(std::move(args)), r_(r), s_(s) {
  // Every parameter and result position must be mentioned exactly once.
  std::vector<bool> param_seen(r_, false), result_seen(s_, false);
  for (const Arg& a : args_) {
    if (a.is_param) {
      QPWM_CHECK_LT(a.index, r_);
      QPWM_CHECK(!param_seen[a.index]);
      param_seen[a.index] = true;
    } else {
      QPWM_CHECK_LT(a.index, s_);
      QPWM_CHECK(!result_seen[a.index]);
      result_seen[a.index] = true;
    }
  }
  for (bool b : param_seen) QPWM_CHECK(b);
  for (bool b : result_seen) QPWM_CHECK(b);
}

std::unique_ptr<AtomQuery> AtomQuery::Adjacency(std::string relation) {
  return std::make_unique<AtomQuery>(std::move(relation),
                                     std::vector<Arg>{{true, 0}, {false, 0}}, 1, 1);
}

BoundQuery AtomQuery::Bind(const Structure& g) const {
  auto rel_idx = g.signature().Find(relation_);
  QPWM_CHECK(rel_idx.ok());
  const Relation& rel = g.relation(rel_idx.value());
  QPWM_CHECK_EQ(rel.arity(), args_.size());

  // R's row ids grouped by the element at the first parameter's position
  // (one group when r = 0), by a stable counting sort: each group keeps
  // relation order. The relation's tuples are distinct and every position
  // is a parameter or a result, so the rows of one parameter are distinct
  // results.
  size_t key_pos = 0;
  while (r_ > 0 && !(args_[key_pos].is_param && args_[key_pos].index == 0)) ++key_pos;
  auto group_of = [&](TupleRef t) -> size_t { return r_ == 0 ? 0 : t[key_pos]; };
  const size_t groups = r_ == 0 ? 1 : g.universe_size();
  std::vector<uint32_t> offsets(groups + 1, 0);
  for (TupleRef t : rel.tuples()) ++offsets[group_of(t) + 1];
  for (size_t k = 0; k < groups; ++k) offsets[k + 1] += offsets[k];
  std::vector<uint32_t> ids(rel.size());
  std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  for (uint32_t id = 0; id < rel.size(); ++id) ids[cursor[group_of(rel.tuple(id))]++] = id;

  // qpwm-lint: allow(view-escape) — bound queries read the structure they were bound to (query.h)
  return [this, &rel, offsets = std::move(offsets), ids = std::move(ids)](
             const Tuple& params) {
    QPWM_CHECK_EQ(params.size(), r_);
    // The row ids index R as Bind saw it: a structure edited since then
    // aborts here rather than reading past R's end.
    QPWM_CHECK_EQ(rel.size(), ids.size());
    // qpwm-lint: allow(legacy-tuple-vector) — building the returned answer set (API contract)
    std::vector<Tuple> out;
    const size_t k = r_ == 0 ? 0 : params[0];
    if (k + 1 >= offsets.size()) return out;
    for (uint32_t i = offsets[k]; i < offsets[k + 1]; ++i) {
      const TupleRef t = rel.tuple(ids[i]);
      bool match = true;
      for (size_t pos = 0; pos < args_.size() && match; ++pos) {
        match = !args_[pos].is_param || t[pos] == params[args_[pos].index];
      }
      if (!match) continue;
      Tuple result(s_);
      for (size_t pos = 0; pos < args_.size(); ++pos) {
        if (!args_[pos].is_param) result[args_[pos].index] = t[pos];
      }
      out.push_back(std::move(result));
    }
    return out;
  };
}

std::string AtomQuery::Name() const {
  std::vector<std::string> rendered;
  for (const Arg& a : args_) {
    rendered.push_back(StrCat(a.is_param ? "u" : "v", a.index + 1));
  }
  return StrCat(relation_, "(", Join(rendered, ", "), ")");
}

BoundQuery DistanceQuery::Bind(const Structure& g) const {
  return [rho = rho_, gg = std::make_shared<const GaifmanGraph>(g)](const Tuple& params) {
    QPWM_CHECK_EQ(params.size(), 1u);
    // qpwm-lint: allow(legacy-tuple-vector) — building the returned answer set (API contract)
    std::vector<Tuple> out;
    for (ElemId e : gg->Sphere(params[0], rho)) out.push_back(Tuple{e});
    return out;
  };
}

std::string DistanceQuery::Name() const { return StrCat("dist<=", rho_, "(u, v)"); }

}  // namespace qpwm
