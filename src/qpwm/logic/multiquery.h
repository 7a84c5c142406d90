// Preserving several registered queries at once (Section 1: "extension to
// several queries psi_1 ... psi_k is straightforward by simple projection
// techniques"). A UnionQuery presents k queries as one parametric query
// whose parameter tuple is prefixed by the query selector, so one QueryIndex
// / scheme plan bounds the distortion of *every* query simultaneously.
//
// Also here: aggregate views over a query (the paper's note that f = sum can
// be replaced by mean / min / max, and its pointer to relational AGGR
// languages — grouping plus aggregation stays local).
#ifndef QPWM_LOGIC_MULTIQUERY_H_
#define QPWM_LOGIC_MULTIQUERY_H_

#include <memory>
#include <vector>

#include "qpwm/logic/query.h"

namespace qpwm {

/// k queries as one: parameter tuples are (selector, padded params...) where
/// selector < k names the sub-query and the padding reuses element 0 for
/// unused positions. Use Domain() to enumerate exactly the meaningful
/// parameters (selector crossed with each query's own domain).
class UnionQuery : public ParametricQuery {
 public:
  /// Queries must share the result arity. Not owned; keep alive.
  explicit UnionQuery(std::vector<const ParametricQuery*> queries);

  uint32_t ParamArity() const override { return 1 + max_r_; }
  uint32_t ResultArity() const override { return s_; }
  /// Binds every member once.
  BoundQuery Bind(const Structure& g) const override;

  /// The smallest common locality rank bound, if every member has one.
  std::optional<uint32_t> LocalityRank() const override;

  std::string Name() const override;

  /// The combined parameter domain: for each selector i, each tuple of
  /// `domains[i]` padded to max_r with element 0.
  std::vector<Tuple> Domain(const std::vector<std::vector<Tuple>>& domains) const;

  /// Convenience: full domains U^{r_i} for every member.
  std::vector<Tuple> FullDomain(const Structure& g) const;

  size_t num_queries() const { return queries_.size(); }

 private:
  std::vector<const ParametricQuery*> queries_;
  uint32_t max_r_ = 0;
  uint32_t s_ = 0;
};

/// Wraps a query so its answers are grouped: the result elements of the
/// inner query are mapped through a grouping function and the weights of a
/// group travel together. Modeling the paper's AGGR observation: aggregates
/// over groups are preserved whenever the underlying answer sets are.
/// Concretely this query returns, for parameter a, the union of the inner
/// results of every parameter in a's group.
class GroupedQuery : public ParametricQuery {
 public:
  using GroupFn = std::function<uint64_t(const Structure&, const Tuple&)>;

  /// `group_of` maps a parameter tuple to its group id; W_a is the union of
  /// inner results over the group of a (requires a registered domain to
  /// enumerate the group members).
  // qpwm-lint: allow(legacy-tuple-vector) — sink parameter; the query owns its group domain
  GroupedQuery(const ParametricQuery& inner, std::vector<Tuple> domain,
               GroupFn group_of);

  uint32_t ParamArity() const override { return inner_->ParamArity(); }
  uint32_t ResultArity() const override { return inner_->ResultArity(); }
  /// Binds the inner query and groups the domain once.
  BoundQuery Bind(const Structure& g) const override;
  std::optional<uint32_t> LocalityRank() const override;
  std::string Name() const override { return "group(" + inner_->Name() + ")"; }

 private:
  const ParametricQuery* inner_;
  // qpwm-lint: allow(legacy-tuple-vector) — owned group-enumeration domain, not relation rows
  std::vector<Tuple> domain_;
  GroupFn group_of_;
};

}  // namespace qpwm

#endif  // QPWM_LOGIC_MULTIQUERY_H_
