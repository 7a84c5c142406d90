#include "qpwm/logic/formula.h"

#include <algorithm>

#include "qpwm/util/check.h"
#include "qpwm/util/str.h"

namespace qpwm {

Formula::~Formula() {
  if (!left && !right) return;
  // Every node popped here is childless by the time it is destroyed, so its
  // own destructor returns at once.
  std::vector<FormulaPtr> pending;
  if (left) pending.push_back(std::move(left));
  if (right) pending.push_back(std::move(right));
  while (!pending.empty()) {
    FormulaPtr f = std::move(pending.back());
    pending.pop_back();
    if (f->left) pending.push_back(std::move(f->left));
    if (f->right) pending.push_back(std::move(f->right));
  }
}

FormulaPtr Formula::Clone() const {
  auto out = std::make_unique<Formula>();
  out->kind = kind;
  out->relation = relation;
  out->vars = vars;
  out->set_var = set_var;
  out->quantified_var = quantified_var;
  if (left) out->left = left->Clone();
  if (right) out->right = right->Clone();
  return out;
}

std::string Formula::ToString() const {
  switch (kind) {
    case FormulaKind::kAtom: {
      std::vector<std::string> args = vars;
      return StrCat(relation, "(", Join(args, ", "), ")");
    }
    case FormulaKind::kEq:
      return StrCat(vars[0], " = ", vars[1]);
    case FormulaKind::kSetMember:
      return StrCat(vars[0], " in ", set_var);
    case FormulaKind::kNot:
      return StrCat("~(", left->ToString(), ")");
    case FormulaKind::kAnd:
      return StrCat("(", left->ToString(), " & ", right->ToString(), ")");
    case FormulaKind::kOr:
      return StrCat("(", left->ToString(), " | ", right->ToString(), ")");
    case FormulaKind::kExists:
      return StrCat("exists ", quantified_var, " (", left->ToString(), ")");
    case FormulaKind::kForall:
      return StrCat("forall ", quantified_var, " (", left->ToString(), ")");
    case FormulaKind::kExistsSet:
      return StrCat("existsset ", set_var, " (", left->ToString(), ")");
    case FormulaKind::kForallSet:
      return StrCat("forallset ", set_var, " (", left->ToString(), ")");
  }
  return "?";
}

namespace {

void CollectFree(const Formula& f, std::set<std::string>& bound_fo,
                 std::set<std::string>& bound_so, std::set<std::string>& free_fo,
                 std::set<std::string>& free_so) {
  switch (f.kind) {
    case FormulaKind::kAtom:
    case FormulaKind::kEq:
      for (const auto& v : f.vars) {
        if (!bound_fo.count(v)) free_fo.insert(v);
      }
      break;
    case FormulaKind::kSetMember:
      if (!bound_fo.count(f.vars[0])) free_fo.insert(f.vars[0]);
      if (!bound_so.count(f.set_var)) free_so.insert(f.set_var);
      break;
    case FormulaKind::kNot:
      CollectFree(*f.left, bound_fo, bound_so, free_fo, free_so);
      break;
    case FormulaKind::kAnd:
    case FormulaKind::kOr:
      CollectFree(*f.left, bound_fo, bound_so, free_fo, free_so);
      CollectFree(*f.right, bound_fo, bound_so, free_fo, free_so);
      break;
    case FormulaKind::kExists:
    case FormulaKind::kForall: {
      bool inserted = bound_fo.insert(f.quantified_var).second;
      CollectFree(*f.left, bound_fo, bound_so, free_fo, free_so);
      if (inserted) bound_fo.erase(f.quantified_var);
      break;
    }
    case FormulaKind::kExistsSet:
    case FormulaKind::kForallSet: {
      bool inserted = bound_so.insert(f.set_var).second;
      CollectFree(*f.left, bound_fo, bound_so, free_fo, free_so);
      if (inserted) bound_so.erase(f.set_var);
      break;
    }
  }
}

}  // namespace

std::set<std::string> Formula::FreeVars() const {
  std::set<std::string> bound_fo, bound_so, free_fo, free_so;
  CollectFree(*this, bound_fo, bound_so, free_fo, free_so);
  return free_fo;
}

std::set<std::string> Formula::FreeSetVars() const {
  std::set<std::string> bound_fo, bound_so, free_fo, free_so;
  CollectFree(*this, bound_fo, bound_so, free_fo, free_so);
  return free_so;
}

uint32_t Formula::QuantifierRank() const {
  uint32_t l = left ? left->QuantifierRank() : 0;
  uint32_t r = right ? right->QuantifierRank() : 0;
  uint32_t sub = std::max(l, r);
  switch (kind) {
    case FormulaKind::kExists:
    case FormulaKind::kForall:
    case FormulaKind::kExistsSet:
    case FormulaKind::kForallSet:
      return sub + 1;
    default:
      return sub;
  }
}

FormulaPtr MakeAtom(std::string relation, std::vector<std::string> vars) {
  auto f = std::make_unique<Formula>();
  f->kind = FormulaKind::kAtom;
  f->relation = std::move(relation);
  f->vars = std::move(vars);
  return f;
}

FormulaPtr MakeEq(std::string x, std::string y) {
  auto f = std::make_unique<Formula>();
  f->kind = FormulaKind::kEq;
  f->vars = {std::move(x), std::move(y)};
  return f;
}

FormulaPtr MakeSetMember(std::string x, std::string set_var) {
  auto f = std::make_unique<Formula>();
  f->kind = FormulaKind::kSetMember;
  f->vars = {std::move(x)};
  f->set_var = std::move(set_var);
  return f;
}

FormulaPtr MakeNot(FormulaPtr inner) {
  auto f = std::make_unique<Formula>();
  f->kind = FormulaKind::kNot;
  f->left = std::move(inner);
  return f;
}

FormulaPtr MakeAnd(FormulaPtr a, FormulaPtr b) {
  auto f = std::make_unique<Formula>();
  f->kind = FormulaKind::kAnd;
  f->left = std::move(a);
  f->right = std::move(b);
  return f;
}

FormulaPtr MakeOr(FormulaPtr a, FormulaPtr b) {
  auto f = std::make_unique<Formula>();
  f->kind = FormulaKind::kOr;
  f->left = std::move(a);
  f->right = std::move(b);
  return f;
}

FormulaPtr MakeExists(std::string var, FormulaPtr body) {
  auto f = std::make_unique<Formula>();
  f->kind = FormulaKind::kExists;
  f->quantified_var = std::move(var);
  f->left = std::move(body);
  return f;
}

FormulaPtr MakeForall(std::string var, FormulaPtr body) {
  auto f = std::make_unique<Formula>();
  f->kind = FormulaKind::kForall;
  f->quantified_var = std::move(var);
  f->left = std::move(body);
  return f;
}

FormulaPtr MakeExistsSet(std::string set_var, FormulaPtr body) {
  auto f = std::make_unique<Formula>();
  f->kind = FormulaKind::kExistsSet;
  f->set_var = std::move(set_var);
  f->left = std::move(body);
  return f;
}

FormulaPtr MakeForallSet(std::string set_var, FormulaPtr body) {
  auto f = std::make_unique<Formula>();
  f->kind = FormulaKind::kForallSet;
  f->set_var = std::move(set_var);
  f->left = std::move(body);
  return f;
}

bool IsFirstOrder(const Formula& f) {
  switch (f.kind) {
    case FormulaKind::kSetMember:
    case FormulaKind::kExistsSet:
    case FormulaKind::kForallSet:
      return false;
    default:
      break;
  }
  if (f.left && !IsFirstOrder(*f.left)) return false;
  if (f.right && !IsFirstOrder(*f.right)) return false;
  return true;
}

}  // namespace qpwm
