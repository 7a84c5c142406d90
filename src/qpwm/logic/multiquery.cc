#include "qpwm/logic/multiquery.h"

#include <algorithm>

#include "qpwm/util/check.h"
#include "qpwm/util/str.h"

namespace qpwm {

UnionQuery::UnionQuery(std::vector<const ParametricQuery*> queries)
    : queries_(std::move(queries)) {
  QPWM_CHECK(!queries_.empty());
  s_ = queries_[0]->ResultArity();
  for (const ParametricQuery* q : queries_) {
    QPWM_CHECK_EQ(q->ResultArity(), s_);
    max_r_ = std::max(max_r_, q->ParamArity());
  }
}

BoundQuery UnionQuery::Bind(const Structure& g) const {
  std::vector<BoundQuery> members;
  members.reserve(queries_.size());
  for (const ParametricQuery* q : queries_) members.push_back(q->Bind(g));
  return [this, members = std::move(members)](const Tuple& params) -> std::vector<Tuple> {
    QPWM_CHECK_EQ(params.size(), ParamArity());
    const ElemId selector = params[0];
    if (selector >= members.size()) return {};  // out-of-range selector: empty
    Tuple inner(params.begin() + 1, params.begin() + 1 + queries_[selector]->ParamArity());
    return members[selector](inner);
  };
}

std::optional<uint32_t> UnionQuery::LocalityRank() const {
  uint32_t worst = 0;
  for (const ParametricQuery* q : queries_) {
    auto rank = q->LocalityRank();
    if (!rank.has_value()) return std::nullopt;
    worst = std::max(worst, *rank);
  }
  return worst;
}

std::string UnionQuery::Name() const {
  std::vector<std::string> names;
  for (const ParametricQuery* q : queries_) names.push_back(q->Name());
  return "union{" + Join(names, "; ") + "}";
}

std::vector<Tuple> UnionQuery::Domain(
    const std::vector<std::vector<Tuple>>& domains) const {
  QPWM_CHECK_EQ(domains.size(), queries_.size());
  // qpwm-lint: allow(legacy-tuple-vector) — building the returned answer set (API contract)
  std::vector<Tuple> out;
  for (size_t i = 0; i < queries_.size(); ++i) {
    for (const Tuple& inner : domains[i]) {
      QPWM_CHECK_EQ(inner.size(), queries_[i]->ParamArity());
      Tuple padded;
      padded.reserve(1 + max_r_);
      padded.push_back(static_cast<ElemId>(i));
      padded.insert(padded.end(), inner.begin(), inner.end());
      padded.resize(1 + max_r_, 0);
      out.push_back(std::move(padded));
    }
  }
  return out;
}

std::vector<Tuple> UnionQuery::FullDomain(const Structure& g) const {
  std::vector<std::vector<Tuple>> domains;
  domains.reserve(queries_.size());
  for (const ParametricQuery* q : queries_) {
    domains.push_back(AllParams(g, q->ParamArity()));
  }
  return Domain(domains);
}

// qpwm-lint: allow(legacy-tuple-vector) — sink parameter; the query owns its group domain
GroupedQuery::GroupedQuery(const ParametricQuery& inner, std::vector<Tuple> domain,
                           GroupFn group_of)
    : inner_(&inner), domain_(std::move(domain)), group_of_(std::move(group_of)) {}

BoundQuery GroupedQuery::Bind(const Structure& g) const {
  std::vector<uint64_t> member_group;
  member_group.reserve(domain_.size());
  for (const Tuple& member : domain_) member_group.push_back(group_of_(g, member));
  // qpwm-lint: allow(view-escape) — bound queries read the structure they were bound to (query.h)
  return [this, &g, inner = inner_->Bind(g),
          member_group = std::move(member_group)](const Tuple& params) {
    const uint64_t group = group_of_(g, params);
    // qpwm-lint: allow(legacy-tuple-vector) — building the returned answer set (API contract)
    std::vector<Tuple> out;
    for (size_t i = 0; i < domain_.size(); ++i) {
      if (member_group[i] != group) continue;
      for (Tuple& t : inner(domain_[i])) out.push_back(std::move(t));
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  };
}

std::optional<uint32_t> GroupedQuery::LocalityRank() const {
  // Grouping by an arbitrary function is not local in general; callers that
  // group by a local property can override via CallbackQuery instead.
  return std::nullopt;
}

}  // namespace qpwm
