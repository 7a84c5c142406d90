// First-order / monadic second-order formula AST over a relational signature.
//
// First-order variables range over universe elements; set variables (MSO)
// range over sets of elements. Implication and equivalence are desugared by
// the parser, so the AST keeps only the core connectives.
#ifndef QPWM_LOGIC_FORMULA_H_
#define QPWM_LOGIC_FORMULA_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

namespace qpwm {

enum class FormulaKind {
  kAtom,       // R(x1, ..., xr)
  kEq,         // x = y
  kSetMember,  // x in X
  kNot,
  kAnd,
  kOr,
  kExists,     // exists x phi
  kForall,     // forall x phi
  kExistsSet,  // existsset X phi
  kForallSet,  // forallset X phi
};

/// One AST node. Build with the factory functions below; nodes own their
/// children.
struct Formula {
  /// Takes the children apart with an explicit stack, so destroying a deep
  /// formula does not recurse once per level.
  ~Formula();

  FormulaKind kind;

  std::string relation;            // kAtom: relation name
  std::vector<std::string> vars;   // kAtom args; kEq {x, y}; kSetMember {x}
  std::string set_var;             // kSetMember / set quantifiers
  std::string quantified_var;      // kExists / kForall

  std::unique_ptr<Formula> left;   // kNot / quantifier body; kAnd/kOr lhs
  std::unique_ptr<Formula> right;  // kAnd / kOr rhs

  std::unique_ptr<Formula> Clone() const;
  std::string ToString() const;

  /// Free first-order variables, sorted.
  std::set<std::string> FreeVars() const;
  /// Free set variables, sorted.
  std::set<std::string> FreeSetVars() const;

  /// Maximum quantifier nesting depth (first-order and set quantifiers).
  uint32_t QuantifierRank() const;
};

using FormulaPtr = std::unique_ptr<Formula>;

FormulaPtr MakeAtom(std::string relation, std::vector<std::string> vars);
FormulaPtr MakeEq(std::string x, std::string y);
FormulaPtr MakeSetMember(std::string x, std::string set_var);
FormulaPtr MakeNot(FormulaPtr f);
FormulaPtr MakeAnd(FormulaPtr a, FormulaPtr b);
FormulaPtr MakeOr(FormulaPtr a, FormulaPtr b);
FormulaPtr MakeExists(std::string var, FormulaPtr body);
FormulaPtr MakeForall(std::string var, FormulaPtr body);
FormulaPtr MakeExistsSet(std::string set_var, FormulaPtr body);
FormulaPtr MakeForallSet(std::string set_var, FormulaPtr body);

/// True if the formula uses no set quantifier and no set membership.
bool IsFirstOrder(const Formula& f);

}  // namespace qpwm

#endif  // QPWM_LOGIC_FORMULA_H_
