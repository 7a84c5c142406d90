#include <gtest/gtest.h>

#include <algorithm>

#include "qpwm/logic/parser.h"
#include "qpwm/logic/query.h"
#include "qpwm/structure/generators.h"
#include "qpwm/util/random.h"

namespace qpwm {
namespace {

std::vector<Tuple> Sorted(std::vector<Tuple> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(AllParamsTest, Arity1) {
  Structure s = PathGraph(3, false);
  auto params = AllParams(s, 1);
  EXPECT_EQ(params.size(), 3u);
}

TEST(AllParamsTest, Arity2Lexicographic) {
  Structure s = PathGraph(3, false);
  auto params = AllParams(s, 2);
  ASSERT_EQ(params.size(), 9u);
  EXPECT_EQ(params[0], (Tuple{0, 0}));
  EXPECT_EQ(params[1], (Tuple{0, 1}));
  EXPECT_EQ(params.back(), (Tuple{2, 2}));
}

TEST(AllParamsTest, Arity0SingleEmpty) {
  Structure s = PathGraph(3, false);
  auto params = AllParams(s, 0);
  ASSERT_EQ(params.size(), 1u);
  EXPECT_TRUE(params[0].empty());
}

TEST(FormulaQueryTest, AdjacencySemantics) {
  Structure s = CycleGraph(5, false);
  FormulaQuery q(MustParseFormula("E(u, v)"), {"u"}, {"v"});
  EXPECT_EQ(q.Evaluate(s, Tuple{0}), (std::vector<Tuple>{{1}}));
  EXPECT_EQ(q.Evaluate(s, Tuple{4}), (std::vector<Tuple>{{0}}));
}

TEST(FormulaQueryTest, TwoHopQuery) {
  Structure s = CycleGraph(5, false);
  FormulaQuery q(MustParseFormula("exists w (E(u, w) & E(w, v))"), {"u"}, {"v"});
  EXPECT_EQ(q.Evaluate(s, Tuple{0}), (std::vector<Tuple>{{2}}));
}

TEST(FormulaQueryTest, LocalityRankFromQuantifierRank) {
  FormulaQuery q(MustParseFormula("exists w (E(u, w) & E(w, v))"), {"u"}, {"v"});
  EXPECT_EQ(q.LocalityRank().value(), 3u);  // (7^1 - 1)/2
}

TEST(AtomQueryTest, MatchesFormulaQuery) {
  Rng rng(5);
  Structure s = RandomBoundedDegreeGraph(30, 3, 80, false, rng);
  auto atom = AtomQuery::Adjacency("E");
  FormulaQuery formula(MustParseFormula("E(u, v)"), {"u"}, {"v"});
  for (ElemId a = 0; a < 30; ++a) {
    EXPECT_EQ(Sorted(atom->Evaluate(s, Tuple{a})), Sorted(formula.Evaluate(s, Tuple{a})))
        << "param " << a;
  }
}

TEST(AtomQueryTest, ReverseAdjacency) {
  Structure s = PathGraph(3, false);
  // psi(u, v) = E(v, u): predecessors of u.
  AtomQuery q("E", {{false, 0}, {true, 0}}, 1, 1);
  EXPECT_TRUE(q.Evaluate(s, Tuple{0}).empty());
  EXPECT_EQ(q.Evaluate(s, Tuple{1}), (std::vector<Tuple>{{0}}));
}

TEST(AtomQueryTest, CachesPerStructure) {
  Structure s1 = PathGraph(4, false);
  Structure s2 = CycleGraph(4, false);
  auto q = AtomQuery::Adjacency("E");
  EXPECT_TRUE(q->Evaluate(s1, Tuple{3}).empty());       // path end
  EXPECT_EQ(q->Evaluate(s2, Tuple{3}).size(), 1u);      // cycle wraps
  EXPECT_TRUE(q->Evaluate(s1, Tuple{3}).empty());       // cache not confused
}

TEST(AtomQueryDeathTest, BindingAbortsOnShrunkRelation) {
  Structure s = CycleGraph(4, false);
  auto q = AtomQuery::Adjacency("E");
  const BoundQuery bound = q->Bind(s);
  EXPECT_EQ(bound(Tuple{3}).size(), 1u);
  // A binding indexes the rows it saw; an edit after Bind needs a fresh Bind.
  s.mutable_relation(0).SetTuplesUnchecked({Tuple{0, 1}});
  EXPECT_DEATH(bound(Tuple{3}), "ids\\.size");
  EXPECT_EQ(q->Bind(s)(Tuple{0}), (std::vector<Tuple>{{1}}));
}

TEST(DistanceQueryTest, SphereSemantics) {
  Structure s = PathGraph(7, false);
  DistanceQuery q(2);
  auto w = Sorted(q.Evaluate(s, Tuple{3}));
  EXPECT_EQ(w, Sorted({{1}, {2}, {3}, {4}, {5}}));
}

TEST(DistanceQueryTest, MatchesFormulaAtRadiusOne) {
  Rng rng(7);
  Structure s = RandomBoundedDegreeGraph(20, 3, 40, true, rng);
  DistanceQuery dist(1);
  FormulaQuery formula(MustParseFormula("u = v | E(u, v) | E(v, u)"), {"u"}, {"v"});
  for (ElemId a = 0; a < 20; ++a) {
    EXPECT_EQ(Sorted(dist.Evaluate(s, Tuple{a})), Sorted(formula.Evaluate(s, Tuple{a})));
  }
}

TEST(CallbackQueryTest, ForwardsAndDeclares) {
  CallbackQuery q("const", 1, 1,
                  [](const Structure&, const Tuple&) {
                    return std::vector<Tuple>{{0}};
                  },
                  5);
  Structure s = PathGraph(3, false);
  EXPECT_EQ(q.Evaluate(s, Tuple{2}), (std::vector<Tuple>{{0}}));
  EXPECT_EQ(q.LocalityRank().value(), 5u);
  EXPECT_EQ(q.Name(), "const");
}

}  // namespace
}  // namespace qpwm
