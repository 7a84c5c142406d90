#include <gtest/gtest.h>
#include <pthread.h>

#include <chrono>
#include <string>
#include <vector>

#include "qpwm/logic/evaluator.h"
#include "qpwm/logic/locality.h"
#include "qpwm/logic/parser.h"
#include "qpwm/structure/generators.h"
#include "qpwm/util/str.h"

namespace qpwm {
namespace {

// --- Parser ----------------------------------------------------------------

TEST(ParserTest, Atom) {
  auto f = MustParseFormula("E(x, y)");
  EXPECT_EQ(f->kind, FormulaKind::kAtom);
  EXPECT_EQ(f->relation, "E");
  EXPECT_EQ(f->vars, (std::vector<std::string>{"x", "y"}));
}

TEST(ParserTest, Equality) {
  auto f = MustParseFormula("x = y");
  EXPECT_EQ(f->kind, FormulaKind::kEq);
}

TEST(ParserTest, SetMembership) {
  auto f = MustParseFormula("x in X");
  EXPECT_EQ(f->kind, FormulaKind::kSetMember);
  EXPECT_EQ(f->set_var, "X");
}

TEST(ParserTest, PrecedenceAndOverOr) {
  auto f = MustParseFormula("E(x, y) | E(y, x) & x = y");
  ASSERT_EQ(f->kind, FormulaKind::kOr);
  EXPECT_EQ(f->right->kind, FormulaKind::kAnd);
}

TEST(ParserTest, ImplicationDesugars) {
  auto f = MustParseFormula("E(x, y) -> E(y, x)");
  ASSERT_EQ(f->kind, FormulaKind::kOr);
  EXPECT_EQ(f->left->kind, FormulaKind::kNot);
}

TEST(ParserTest, IffDesugars) {
  auto f = MustParseFormula("E(x, y) <-> E(y, x)");
  EXPECT_EQ(f->kind, FormulaKind::kAnd);
}

TEST(ParserTest, Quantifiers) {
  auto f = MustParseFormula("exists y forall z (E(y, z))");
  EXPECT_EQ(f->kind, FormulaKind::kExists);
  EXPECT_EQ(f->left->kind, FormulaKind::kForall);
  EXPECT_EQ(f->QuantifierRank(), 2u);
}

TEST(ParserTest, SetQuantifiers) {
  auto f = MustParseFormula("existsset X forallset Y (x in X & x in Y)");
  EXPECT_EQ(f->kind, FormulaKind::kExistsSet);
  EXPECT_EQ(f->left->kind, FormulaKind::kForallSet);
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseFormula("E(x").ok());
  EXPECT_FALSE(ParseFormula("E(x,)").ok());
  EXPECT_FALSE(ParseFormula("x =").ok());
  EXPECT_FALSE(ParseFormula("exists (E(x, y))").ok());
  EXPECT_FALSE(ParseFormula("E(x, y) E(y, x)").ok());
  EXPECT_FALSE(ParseFormula("@").ok());
  EXPECT_FALSE(ParseFormula("x <").ok());
}

// Hostile nesting must come back as a ParseError: without the depth limit
// the recursive descent overflows the stack at 10^5 nested `~`.
TEST(ParserTest, DeepNestingIsAParseErrorNotACrash) {
  for (size_t depth : {size_t{100000}, size_t{1000000}}) {
    const std::string nots = std::string(depth, '~') + "x = y";
    auto f = ParseFormula(nots);
    ASSERT_FALSE(f.ok()) << depth;
    EXPECT_EQ(f.status().code(), StatusCode::kParseError) << depth;
    EXPECT_NE(f.status().message().find("nesting depth"), std::string::npos);
  }
  const size_t depth = 100000;
  std::string parens = std::string(depth, '(') + "x = y" + std::string(depth, ')');
  std::string quantifiers;
  std::string implications;
  for (size_t i = 0; i < depth; ++i) {
    quantifiers += "exists y ";
    implications += "x = y -> ";
  }
  quantifiers += "x = y";
  implications += "x = y";
  for (const std::string& text : {parens, quantifiers, implications}) {
    auto f = ParseFormula(text);
    ASSERT_FALSE(f.ok());
    EXPECT_EQ(f.status().code(), StatusCode::kParseError);
  }
}

TEST(ParserTest, NestingUpToTheLimitParses) {
  auto nots = ParseFormula(std::string(1000, '~') + "x = y");
  ASSERT_TRUE(nots.ok()) << nots.status().message();
  const Formula* f = nots.value().get();
  for (size_t i = 0; i < 1000; ++i) {
    ASSERT_EQ(f->kind, FormulaKind::kNot) << i;
    f = f->left.get();
  }
  EXPECT_EQ(f->kind, FormulaKind::kEq);

  const size_t depth = kMaxFormulaDepth - 1;
  auto parens = ParseFormula(std::string(depth, '(') + "x = y" + std::string(depth, ')'));
  EXPECT_TRUE(parens.ok()) << parens.status().message();
  auto over = ParseFormula(std::string(kMaxFormulaDepth + 1, '~') + "x = y");
  EXPECT_FALSE(over.ok());
}

size_t CountNodes(const Formula& root) {
  size_t count = 0;
  std::vector<const Formula*> stack{&root};
  while (!stack.empty()) {
    const Formula* f = stack.back();
    stack.pop_back();
    ++count;
    if (f->left) stack.push_back(f->left.get());
    if (f->right) stack.push_back(f->right.get());
  }
  return count;
}

std::string IffChain(size_t links, const std::string& var) {
  std::string text = "E(" + var + "0, y)";
  for (size_t i = 1; i <= links; ++i) {
    text += " <-> E(" + var + std::to_string(i) + ", y)";
  }
  return text;
}

TEST(ParserTest, IffChainOverTheNodeBudgetFailsFast) {
  // 40 chained <-> would desugar to about 2^43 nodes.
  const auto start = std::chrono::steady_clock::now();
  auto f = ParseFormula(IffChain(40, "x"));
  const std::chrono::duration<double> took = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(f.ok());
  EXPECT_EQ(f.status().code(), StatusCode::kParseError);
  EXPECT_NE(f.status().message().find("nodes"), std::string::npos);
  EXPECT_LT(took.count(), 10.0);

  // The budget is for the whole formula: chains that fit one by one do not
  // fit side by side.
  auto one = ParseFormula(IffChain(12, "x"));
  ASSERT_TRUE(one.ok()) << one.status().message();
  ASSERT_LE(CountNodes(*one.value()), kMaxFormulaNodes);
  std::string many = "(" + IffChain(12, "x") + ")";
  for (size_t copies = 1; copies * CountNodes(*one.value()) <= kMaxFormulaNodes; ++copies) {
    many += " & (" + IffChain(12, "x") + ")";
  }
  auto all = ParseFormula(many);
  ASSERT_FALSE(all.ok());
  EXPECT_EQ(all.status().code(), StatusCode::kParseError);
}

TEST(ParserTest, IffChainWithinTheBudgetParsesAsBefore) {
  // a <-> b desugars to (~a | b) & (~b | a), left to right along the chain.
  FormulaPtr want = MakeAtom("E", {"x0", "y"});
  for (size_t i = 1; i <= 8; ++i) {
    FormulaPtr r = MakeAtom("E", {StrCat("x", i), "y"});
    FormulaPtr fwd = MakeOr(MakeNot(want->Clone()), r->Clone());
    FormulaPtr bwd = MakeOr(MakeNot(std::move(r)), std::move(want));
    want = MakeAnd(std::move(fwd), std::move(bwd));
  }
  auto f = ParseFormula(IffChain(8, "x"));
  ASSERT_TRUE(f.ok()) << f.status().message();
  EXPECT_EQ(f.value()->ToString(), want->ToString());
  EXPECT_EQ(CountNodes(*f.value()), 2041u);
}

TEST(ParserTest, RoundTripThroughToString) {
  const char* inputs[] = {
      "E(x, y)", "~(x = y)", "exists y (E(x, y) & ~(y = z))",
      "forallset X (x in X | ~(x in X))"};
  for (const char* in : inputs) {
    auto f1 = MustParseFormula(in);
    auto f2 = MustParseFormula(f1->ToString());
    EXPECT_EQ(f1->ToString(), f2->ToString()) << in;
  }
}

// --- Free variables -----------------------------------------------------------

TEST(FormulaTest, FreeVars) {
  auto f = MustParseFormula("exists y (E(x, y) & y = z)");
  auto free_vars = f->FreeVars();
  EXPECT_EQ(free_vars, (std::set<std::string>{"x", "z"}));
}

TEST(FormulaTest, FreeSetVars) {
  auto f = MustParseFormula("existsset X (x in X & y in Y)");
  EXPECT_EQ(f->FreeSetVars(), (std::set<std::string>{"Y"}));
  EXPECT_EQ(f->FreeVars(), (std::set<std::string>{"x", "y"}));
}

TEST(FormulaTest, ShadowingKeepsOuterFree) {
  auto f = MustParseFormula("E(y, y) & exists y E(y, y)");
  EXPECT_EQ(f->FreeVars(), (std::set<std::string>{"y"}));
}

TEST(FormulaTest, IsFirstOrder) {
  EXPECT_TRUE(IsFirstOrder(*MustParseFormula("exists y E(x, y)")));
  EXPECT_FALSE(IsFirstOrder(*MustParseFormula("existsset X (x in X)")));
  EXPECT_FALSE(IsFirstOrder(*MustParseFormula("x in X")));
}

TEST(FormulaTest, CloneIsDeep) {
  auto f = MustParseFormula("exists y (E(x, y))");
  auto c = f->Clone();
  c->quantified_var = "w";
  EXPECT_EQ(f->quantified_var, "y");
}

TEST(FormulaTest, DeepChainIsDestroyedOnASmallStack) {
  // 10^5 levels of Not and And: a destructor recursing once per level needs
  // megabytes of stack; the thread that destroys the chain has 256 KiB.
  FormulaPtr f = MakeAtom("P", {"x"});
  for (int i = 0; i < 100000; ++i) {
    f = i % 2 == 0 ? MakeNot(std::move(f)) : MakeAnd(std::move(f), MakeAtom("P", {"x"}));
  }
  pthread_attr_t attr;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&attr, 256 * 1024), 0);
  pthread_t thread;
  const int created = pthread_create(
      &thread, &attr,
      [](void* arg) -> void* {
        static_cast<FormulaPtr*>(arg)->reset();
        return nullptr;
      },
      &f);
  pthread_attr_destroy(&attr);
  ASSERT_EQ(created, 0);
  ASSERT_EQ(pthread_join(thread, nullptr), 0);
  EXPECT_EQ(f, nullptr);
}

// --- Evaluator -------------------------------------------------------------------

TEST(EvaluatorTest, AtomOnCycle) {
  Structure s = CycleGraph(4, false);
  Evaluator ev(s);
  Environment env;
  env.elems["x"] = 0;
  env.elems["y"] = 1;
  EXPECT_TRUE(ev.MustEval(*MustParseFormula("E(x, y)"), env));
  env.elems["y"] = 2;
  EXPECT_FALSE(ev.MustEval(*MustParseFormula("E(x, y)"), env));
}

TEST(EvaluatorTest, ExistsAndForall) {
  Structure s = CycleGraph(4, false);
  Evaluator ev(s);
  Environment env;
  // Every vertex of a cycle has a successor.
  EXPECT_TRUE(ev.MustEval(*MustParseFormula("forall x exists y E(x, y)"), env));
  // No vertex is its own successor.
  EXPECT_FALSE(ev.MustEval(*MustParseFormula("exists x E(x, x)"), env));
}

TEST(EvaluatorTest, PathHasEndpoint) {
  Structure s = PathGraph(5, false);
  Evaluator ev(s);
  Environment env;
  EXPECT_TRUE(ev.MustEval(*MustParseFormula("exists x forall y ~E(x, y)"), env));
}

TEST(EvaluatorTest, QuantifierRestoresBinding) {
  Structure s = CycleGraph(3, false);
  Evaluator ev(s);
  Environment env;
  env.elems["x"] = 2;
  ev.MustEval(*MustParseFormula("exists x E(x, x)"), env);
  EXPECT_EQ(env.elems["x"], 2u);
}

TEST(EvaluatorTest, SetQuantifierSemantics) {
  // "There is a set containing x and closed under E that avoids y" is false
  // on a cycle (closure forces everything in).
  Structure s = CycleGraph(4, false);
  Evaluator ev(s);
  Environment env;
  env.elems["x"] = 0;
  env.elems["y"] = 2;
  auto f = MustParseFormula(
      "existsset X (x in X & ~(y in X) & forall u forall v ((u in X & E(u, v)) -> v "
      "in X))");
  EXPECT_FALSE(ev.MustEval(*f, env));
  // On a path the closure from a later vertex avoids earlier ones.
  Structure p = PathGraph(4, false);
  Evaluator ev2(p);
  env.elems["x"] = 2;
  env.elems["y"] = 0;
  EXPECT_TRUE(ev2.MustEval(*f, env));
}

TEST(EvaluatorTest, ErrorsOnUnknownRelation) {
  Structure s = CycleGraph(3, false);
  Evaluator ev(s);
  Environment env;
  env.elems["x"] = 0;
  auto r = ev.Eval(*MustParseFormula("Q(x, x)"), env);
  EXPECT_FALSE(r.ok());
}

TEST(EvaluatorTest, ErrorsOnUnboundVariable) {
  Structure s = CycleGraph(3, false);
  Evaluator ev(s);
  Environment env;
  auto r = ev.Eval(*MustParseFormula("E(x, y)"), env);
  EXPECT_FALSE(r.ok());
}

TEST(EvaluatorTest, SetQuantifierOverLargeUniverseIsRecoverable) {
  // Naive subset enumeration is capped at 2^24 environments; beyond that the
  // evaluator must return InvalidArgument, not abort the process.
  Structure s = CycleGraph(30, false);
  Evaluator ev(s);
  Environment env;
  env.elems["x"] = 0;
  auto r = ev.Eval(*MustParseFormula("existsset X (x in X)"), env);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// --- Locality -------------------------------------------------------------------

TEST(LocalityTest, GaifmanBoundGrowth) {
  EXPECT_EQ(GaifmanLocalityBound(0), 0u);
  EXPECT_EQ(GaifmanLocalityBound(1), 3u);
  EXPECT_EQ(GaifmanLocalityBound(2), 24u);
  EXPECT_EQ(GaifmanLocalityBound(3), 171u);
}

TEST(LocalityTest, DivergenceBound) {
  // eta = 2 r k^(2 rho + 1)
  EXPECT_EQ(LocalityDivergenceBound(1, 3, 1), 2u * 27u);
  EXPECT_EQ(LocalityDivergenceBound(2, 2, 2), 4u * 32u);
}

TEST(LocalityTest, AdjacencyQueryDivergenceWithinEta) {
  Rng rng(3);
  Structure s = RandomBoundedDegreeGraph(60, 3, 150, false, rng);
  auto query = AtomQuery::Adjacency("E");
  auto domain = AllParams(s, 1);
  uint64_t diverge = MaxSameTypeDivergence(s, *query, 1, domain);
  // Same radius-1 type => identical out-neighborhood counts; Lemma 1 bound.
  EXPECT_LE(diverge, LocalityDivergenceBound(1, 3, 1));
}

TEST(LocalityTest, ExactlyLocalOnCycle) {
  // On a vertex-transitive cycle every vertex has the same type and the same
  // out-degree; divergence is |W_a \ W_b| = 1 (different neighbor sets).
  Structure s = CycleGraph(8, true);
  auto query = AtomQuery::Adjacency("E");
  auto domain = AllParams(s, 1);
  uint64_t diverge = MaxSameTypeDivergence(s, *query, 1, domain);
  EXPECT_LE(diverge, 2u);
}

}  // namespace
}  // namespace qpwm
