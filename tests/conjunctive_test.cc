#include <gtest/gtest.h>

#include "qpwm/core/distortion.h"
#include "qpwm/core/local_scheme.h"
#include "qpwm/logic/conjunctive.h"
#include "qpwm/logic/parser.h"
#include "qpwm/relational/table.h"
#include "qpwm/structure/generators.h"
#include "qpwm/util/random.h"

namespace qpwm {
namespace {

TEST(CqParseTest, SingleAtom) {
  auto q = ConjunctiveQuery::Parse("E(u1, v1)").ValueOrDie();
  EXPECT_EQ(q.ParamArity(), 1u);
  EXPECT_EQ(q.ResultArity(), 1u);
  EXPECT_EQ(q.num_join_vars(), 0u);
  EXPECT_EQ(q.Name(), "E(u1, v1)");
}

TEST(CqParseTest, JoinQuery) {
  auto q = ConjunctiveQuery::Parse("E(u1, x1), E(x1, v1)").ValueOrDie();
  EXPECT_EQ(q.num_join_vars(), 1u);
  EXPECT_EQ(q.body().size(), 2u);
}

TEST(CqParseTest, Errors) {
  EXPECT_FALSE(ConjunctiveQuery::Parse("").ok());
  EXPECT_FALSE(ConjunctiveQuery::Parse("E(u1, v1").ok());       // unterminated
  EXPECT_FALSE(ConjunctiveQuery::Parse("E(u0, v1)").ok());      // 0-based index
  EXPECT_FALSE(ConjunctiveQuery::Parse("E(u1, w1)").ok());      // bad var kind
  EXPECT_FALSE(ConjunctiveQuery::Parse("E(u1, x1)").ok());      // no result var
  EXPECT_FALSE(ConjunctiveQuery::Parse("E(u1, v1) E(v1, v1)").ok());
  // Indices beyond 32 bits: no exception escapes, no silent wrap to u1.
  EXPECT_EQ(ConjunctiveQuery::Parse("E(u99999999999999999999, v1)").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ConjunctiveQuery::Parse("E(u4294967297, v1)").status().code(),
            StatusCode::kParseError);
  // A result variable missing from the body: an error, not an abort.
  EXPECT_EQ(ConjunctiveQuery::Parse("E(u1, v2)").status().code(),
            StatusCode::kParseError);
}

TEST(CqParseTest, CheckSignatureRejectsUnknownRelationAndWrongArity) {
  const Signature sig = GraphSignature();
  EXPECT_TRUE(ConjunctiveQuery::Parse("E(u1, x1), E(x1, v1)")
                  .ValueOrDie()
                  .CheckSignature(sig)
                  .ok());
  const Status unknown =
      ConjunctiveQuery::Parse("E(u1, x1), Nope(x1, v1)").ValueOrDie().CheckSignature(sig);
  EXPECT_EQ(unknown.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(unknown.message().find("Nope"), std::string::npos);
  const Status arity =
      ConjunctiveQuery::Parse("E(u1, v1, x1)").ValueOrDie().CheckSignature(sig);
  EXPECT_EQ(arity.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(arity.message().find("arity 2"), std::string::npos);
}

TEST(CqEvalTest, MatchesFormulaQueryOnTwoHop) {
  Rng rng(11);
  Structure g = RandomBoundedDegreeGraph(40, 3, 100, false, rng);
  auto cq = ConjunctiveQuery::Parse("E(u1, x1), E(x1, v1)").ValueOrDie();
  FormulaQuery fo(MustParseFormula("exists w (E(u, w) & E(w, v))"), {"u"}, {"v"});
  for (ElemId a = 0; a < 40; ++a) {
    auto lhs = cq.Evaluate(g, Tuple{a});
    auto rhs = fo.Evaluate(g, Tuple{a});
    std::sort(rhs.begin(), rhs.end());
    EXPECT_EQ(lhs, rhs) << "a=" << a;
  }
}

TEST(CqEvalTest, TriangleClosure) {
  // v completes a triangle with u: E(u,x), E(x,v), E(v,u).
  Structure g(GraphSignature(), 4);
  g.AddTuple(size_t{0}, Tuple{0, 1});
  g.AddTuple(size_t{0}, Tuple{1, 2});
  g.AddTuple(size_t{0}, Tuple{2, 0});
  g.AddTuple(size_t{0}, Tuple{1, 3});
  g.Seal();
  auto cq = ConjunctiveQuery::Parse("E(u1, x1), E(x1, v1), E(v1, u1)").ValueOrDie();
  EXPECT_EQ(cq.Evaluate(g, Tuple{0}), (std::vector<Tuple>{{2}}));
  EXPECT_TRUE(cq.Evaluate(g, Tuple{3}).empty());
}

TEST(CqEvalDeathTest, BindingAbortsOnShrunkRelation) {
  Structure g = CycleGraph(4, false);
  auto cq = ConjunctiveQuery::Parse("E(u1, x1), E(x1, v1)").ValueOrDie();
  const BoundQuery bound = cq.Bind(g);
  EXPECT_EQ(bound(Tuple{0}), (std::vector<Tuple>{{2}}));
  // A binding indexes the rows it saw; an edit after Bind needs a fresh Bind.
  g.mutable_relation(0).SetTuplesUnchecked({Tuple{0, 1}});
  EXPECT_DEATH(bound(Tuple{0}), "ai\\.rows");
  EXPECT_TRUE(cq.Bind(g)(Tuple{0}).empty());
}

TEST(CqEvalTest, RepeatedVariableInAtom) {
  Structure g(GraphSignature(), 3);
  g.AddTuple(size_t{0}, Tuple{1, 1});  // self-loop
  g.AddTuple(size_t{0}, Tuple{0, 1});
  g.Seal();
  auto cq = ConjunctiveQuery::Parse("E(v1, v1)").ValueOrDie();
  EXPECT_EQ(cq.Evaluate(g, Tuple{}), (std::vector<Tuple>{{1}}));
}

TEST(CqEvalTest, BinaryResultTuples) {
  Structure g = PathGraph(4, false);
  auto cq = ConjunctiveQuery::Parse("E(v1, v2)").ValueOrDie();
  EXPECT_EQ(cq.ParamArity(), 0u);
  EXPECT_EQ(cq.ResultArity(), 2u);
  auto w = cq.Evaluate(g, Tuple{});
  EXPECT_EQ(w.size(), 3u);  // the three path edges
}

TEST(CqEvalTest, TravelDatabaseJoin) {
  // "transports of travel u that depart from city v" — a real SQL-ish join:
  // Route(u, x), Timetable(x, v, y, z) with the transport as join var? No:
  // we want the transport in the answer: Route(u, v1), Timetable(v1, x1, x2, x3)
  // restricted by nothing — answers transports with full timetable rows.
  Database db = TravelAgencyDatabase();
  auto instance = ToWeightedStructure(db).ValueOrDie();
  auto cq = ConjunctiveQuery::Parse(
                "Route(u1, v1), Timetable(v1, x1, x2, x3)")
                .ValueOrDie();
  ElemId nepal = instance.structure.FindElement("Nepal Trek").ValueOrDie();
  auto w = cq.Evaluate(instance.structure, Tuple{nepal});
  // Nepal Trek uses F21, R5, F2 — all present in Timetable.
  EXPECT_EQ(w.size(), 3u);
}

TEST(CqEvalTest, LocalityRankFromJoinVars) {
  auto q0 = ConjunctiveQuery::Parse("E(u1, v1)").ValueOrDie();
  EXPECT_EQ(q0.LocalityRank().value(), 1u);  // atoms have rank 1, not 0
  auto q2 = ConjunctiveQuery::Parse("E(u1, x1), E(x1, x2), E(x2, v1)").ValueOrDie();
  EXPECT_EQ(q2.LocalityRank().value(), 24u);  // Gaifman bound for rank 2
}

TEST(CqSchemeTest, WatermarkPreservesJoinQuery) {
  // End to end: plan the local scheme against a 2-hop join query.
  Rng rng(13);
  Structure g = RandomBoundedDegreeGraph(120, 3, 300, false, rng);
  auto cq = ConjunctiveQuery::Parse("E(u1, x1), E(x1, v1)").ValueOrDie();
  QueryIndex index(g, cq, AllParams(g, 1));
  WeightMap w = RandomWeights(g, 100, 999, rng);

  LocalSchemeOptions opts;
  opts.epsilon = 0.5;
  opts.key = {21, 22};
  opts.rho = 2;  // the join's true locality radius, not the Gaifman bound
  auto scheme = LocalScheme::Plan(index, opts).ValueOrDie();
  if (scheme.CapacityBits() == 0) GTEST_SKIP();

  BitVec mark(scheme.CapacityBits());
  for (size_t i = 0; i < mark.size(); ++i) mark.Set(i, rng.Coin());
  WeightMap marked = scheme.Embed(w, mark);
  EXPECT_LE(GlobalDistortion(index, w, marked),
            static_cast<Weight>(scheme.Budget()));
  HonestServer server(index, marked);
  EXPECT_EQ(scheme.Detect(w, server).ValueOrDie(), mark);
}

}  // namespace
}  // namespace qpwm
