// Conjunctive queries (select-project-join — the paper's "mostly plain SQL"
// class, which is FO and therefore local by Gaifman's theorem):
//
//   psi(u_bar, v_bar) :- R1(t_11, ...), R2(t_21, ...), ...
//
// where every argument is a parameter variable, a result variable, or an
// existential join variable. Evaluation is a backtracking join driven by
// per-relation hash indexes on the bound positions — polynomial on the
// bounded-degree instances the schemes target, and exact.
#ifndef QPWM_LOGIC_CONJUNCTIVE_H_
#define QPWM_LOGIC_CONJUNCTIVE_H_

#include <string>
#include <vector>

#include "qpwm/logic/query.h"
#include "qpwm/structure/signature.h"
#include "qpwm/util/status.h"

namespace qpwm {

/// One atom argument of a conjunctive query body.
struct CqTerm {
  enum class Kind { kParam, kResult, kJoin };
  Kind kind = Kind::kJoin;
  uint32_t index = 0;  // parameter / result position, or join-variable id
};

/// One body atom: a relation applied to terms.
struct CqAtom {
  std::string relation;
  std::vector<CqTerm> terms;
};

/// A conjunctive parametric query. Build programmatically or with Parse:
///
///   "Route(u1, v1), Timetable(v1, x1, x2, x3)"
///
/// where u<N> are parameters, v<N> result variables, x<N> join variables
/// (1-based in the text, 0-based internally).
class ConjunctiveQuery : public ParametricQuery {
 public:
  ConjunctiveQuery(std::vector<CqAtom> body, uint32_t r, uint32_t s);

  /// Parses the textual form. Arities are inferred from the variables used;
  /// every parameter/result index up to the maximum must appear.
  [[nodiscard]] static Result<ConjunctiveQuery> Parse(std::string_view text);

  /// InvalidArgument unless every body atom names a relation of `sig` at
  /// its arity. Bind aborts on a structure that fails this check.
  [[nodiscard]] Status CheckSignature(const Signature& sig) const;

  uint32_t ParamArity() const override { return r_; }
  uint32_t ResultArity() const override { return s_; }
  BoundQuery Bind(const Structure& g) const override;

  /// Conjunctive queries are quantifier-rank <= #join variables; Gaifman's
  /// bound applies. In practice the join diameter is what matters; we report
  /// the syntactic bound.
  std::optional<uint32_t> LocalityRank() const override;

  std::string Name() const override;

  const std::vector<CqAtom>& body() const { return body_; }
  uint32_t num_join_vars() const { return num_join_; }

 private:
  std::vector<CqAtom> body_;
  uint32_t r_;
  uint32_t s_;
  uint32_t num_join_ = 0;
};

}  // namespace qpwm

#endif  // QPWM_LOGIC_CONJUNCTIVE_H_
