// Parametric queries psi(u_bar, v_bar): the server-registered queries whose
// answers the watermark must preserve. A query maps a parameter tuple a_bar
// (chosen by a final user) to the set W_a = psi(a_bar, G) of s-tuples whose
// weights the user receives.
//
// Implementations:
//   * FormulaQuery    — an FO/MSO formula evaluated naively (reference).
//   * AtomQuery       — R(u_bar, v_bar) pattern answered from an index
//                       (scales to the benchmark sizes; locality rank 1).
//   * DistanceQuery   — "v within Gaifman distance rho of u" (FO-definable
//                       on bounded-degree classes; locality rank rho).
//   * CallbackQuery   — arbitrary user logic with a declared locality rank.
#ifndef QPWM_LOGIC_QUERY_H_
#define QPWM_LOGIC_QUERY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "qpwm/logic/formula.h"
#include "qpwm/structure/gaifman.h"
#include "qpwm/structure/structure.h"

namespace qpwm {

/// W_a = psi(a_bar, G) over the one structure G a query was bound to (see
/// ParametricQuery::Bind): takes a parameter tuple, returns the distinct
/// result s-tuples in unspecified order.
///
/// Thread-safety contract: a bound evaluator is immutable — its per-structure
/// state is built before Bind returns and calls only read it — so any number
/// of threads may call one instance at once (QueryIndex evaluates its whole
/// domain that way, util/parallel.h). It reads the structure and the query it
/// was bound from: both must outlive it, and a structure edited after Bind
/// needs a fresh Bind (the atom and conjunctive bindings abort when a
/// relation's row count no longer matches the one they indexed).
using BoundQuery = std::function<std::vector<Tuple>(const Tuple& params)>;

/// Abstract parametric query.
class ParametricQuery {
 public:
  virtual ~ParametricQuery() = default;

  /// Parameter arity r (size of u_bar).
  virtual uint32_t ParamArity() const = 0;
  /// Result arity s (size of v_bar) — must equal the weight arity.
  virtual uint32_t ResultArity() const = 0;

  /// Builds the query's per-structure state over `g` once (the Gaifman
  /// graph, atom rows, join indexes) and returns the evaluator of W_a over
  /// it. Aborts when `g` lacks a relation the query names or has it at the
  /// wrong arity; ConjunctiveQuery::CheckSignature is the fallible check.
  virtual BoundQuery Bind(const Structure& g) const = 0;

  /// One-shot W_a = psi(a_bar, G): Bind, then evaluate. Every call rebinds,
  /// so loops over many parameters should Bind once instead.
  std::vector<Tuple> Evaluate(const Structure& g, const Tuple& params) const {
    return Bind(g)(params);
  }

  /// A locality rank rho if one is known (Definition 5). Gaifman's theorem
  /// guarantees one for every FO query.
  virtual std::optional<uint32_t> LocalityRank() const { return std::nullopt; }

  virtual std::string Name() const { return "query"; }
};

/// All parameter tuples U^r of a structure, in lexicographic order.
std::vector<Tuple> AllParams(const Structure& g, uint32_t r);

/// Reference implementation: enumerate candidate result tuples, test with the
/// naive evaluator. Exponential-ish; small structures only.
class FormulaQuery : public ParametricQuery {
 public:
  /// `param_vars` then `result_vars` must cover the free variables of `f`.
  FormulaQuery(FormulaPtr f, std::vector<std::string> param_vars,
               std::vector<std::string> result_vars);

  uint32_t ParamArity() const override { return static_cast<uint32_t>(param_vars_.size()); }
  uint32_t ResultArity() const override {
    return static_cast<uint32_t>(result_vars_.size());
  }
  BoundQuery Bind(const Structure& g) const override;
  std::optional<uint32_t> LocalityRank() const override;
  std::string Name() const override { return formula_->ToString(); }

  const Formula& formula() const { return *formula_; }

 private:
  FormulaPtr formula_;
  std::vector<std::string> param_vars_;
  std::vector<std::string> result_vars_;
};

/// psi(u_bar, v_bar) = R(w_1, ..., w_k) where each w_i is either the j-th
/// parameter or the j-th result position. Bind groups R's rows by their
/// first parameter in flat arrays; a parameter's answer lists its rows in
/// relation order.
class AtomQuery : public ParametricQuery {
 public:
  /// Position spec: for each argument of R, (is_param, index).
  struct Arg {
    bool is_param;
    uint32_t index;
  };

  AtomQuery(std::string relation, std::vector<Arg> args, uint32_t r, uint32_t s);

  /// Convenience: psi(u, v) = R(u, v).
  static std::unique_ptr<AtomQuery> Adjacency(std::string relation);

  uint32_t ParamArity() const override { return r_; }
  uint32_t ResultArity() const override { return s_; }
  BoundQuery Bind(const Structure& g) const override;
  std::optional<uint32_t> LocalityRank() const override { return 1; }
  std::string Name() const override;

 private:
  std::string relation_;
  std::vector<Arg> args_;
  uint32_t r_;
  uint32_t s_;
};

/// psi(u, v) = "d(u, v) <= rho" in the Gaifman graph. FO-definable whenever
/// the signature is fixed; locality rank rho.
class DistanceQuery : public ParametricQuery {
 public:
  explicit DistanceQuery(uint32_t rho) : rho_(rho) {}

  uint32_t ParamArity() const override { return 1; }
  uint32_t ResultArity() const override { return 1; }
  BoundQuery Bind(const Structure& g) const override;
  std::optional<uint32_t> LocalityRank() const override { return rho_; }
  std::string Name() const override;

 private:
  uint32_t rho_;
};

/// Wraps a callback; the caller declares arities and (optionally) a locality
/// rank it promises the callback respects. The callback is called from the
/// bound evaluator, so it must be thread-safe too (or run with
/// QPWM_THREADS=1).
class CallbackQuery : public ParametricQuery {
 public:
  using Fn = std::function<std::vector<Tuple>(const Structure&, const Tuple&)>;

  CallbackQuery(std::string name, uint32_t r, uint32_t s, Fn fn,
                std::optional<uint32_t> locality_rank = std::nullopt)
      : name_(std::move(name)), r_(r), s_(s), fn_(std::move(fn)), rho_(locality_rank) {}

  uint32_t ParamArity() const override { return r_; }
  uint32_t ResultArity() const override { return s_; }
  BoundQuery Bind(const Structure& g) const override {
    // qpwm-lint: allow(view-escape) — bound queries read the structure they were bound to (query.h)
    return [this, &g](const Tuple& params) { return fn_(g, params); };
  }
  std::optional<uint32_t> LocalityRank() const override { return rho_; }
  std::string Name() const override { return name_; }

 private:
  std::string name_;
  uint32_t r_;
  uint32_t s_;
  Fn fn_;
  std::optional<uint32_t> rho_;
};

}  // namespace qpwm

#endif  // QPWM_LOGIC_QUERY_H_
