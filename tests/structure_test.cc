#include <gtest/gtest.h>

#include "qpwm/structure/gaifman.h"
#include "qpwm/structure/generators.h"
#include "qpwm/structure/neighborhood.h"
#include "qpwm/structure/structure.h"
#include "qpwm/structure/weighted.h"

namespace qpwm {
namespace {

Structure TinyGraph() {
  Structure s(GraphSignature(), 4);
  s.AddTuple(size_t{0}, Tuple{0, 1});
  s.AddTuple(size_t{0}, Tuple{1, 2});
  s.Seal();
  return s;
}

// --- Signature / Structure ----------------------------------------------

TEST(SignatureTest, FindByName) {
  Signature sig;
  sig.AddRelation("R", 2);
  sig.AddRelation("S", 3);
  EXPECT_EQ(sig.Find("R").ValueOrDie(), 0u);
  EXPECT_EQ(sig.Find("S").ValueOrDie(), 1u);
  EXPECT_FALSE(sig.Find("T").ok());
}

TEST(SignatureTest, Equality) {
  Signature a, b;
  a.AddRelation("R", 2);
  b.AddRelation("R", 2);
  EXPECT_TRUE(a == b);
  b.AddRelation("S", 1);
  EXPECT_FALSE(a == b);
}

TEST(StructureTest, AddAndContains) {
  Structure s = TinyGraph();
  EXPECT_EQ(s.universe_size(), 4u);
  EXPECT_TRUE(s.relation("E").Contains(Tuple{0, 1}));
  EXPECT_FALSE(s.relation("E").Contains(Tuple{1, 0}));
  EXPECT_EQ(s.TotalTuples(), 2u);
}

TEST(StructureTest, DeduplicatesTuples) {
  Structure s(GraphSignature(), 3);
  s.AddTuple(size_t{0}, Tuple{0, 1});
  s.AddTuple(size_t{0}, Tuple{0, 1});
  EXPECT_EQ(s.relation(size_t{0}).size(), 1u);
}

TEST(StructureTest, ElementNames) {
  Structure s = TinyGraph();
  s.SetElementName(2, "charlie");
  EXPECT_EQ(s.ElementName(2), "charlie");
  EXPECT_EQ(s.FindElement("charlie").ValueOrDie(), 2u);
  EXPECT_FALSE(s.FindElement("nobody").ok());
}

TEST(IncidenceIndexTest, ListsTuplesPerElement) {
  Structure s = TinyGraph();
  IncidenceIndex idx(s);
  EXPECT_EQ(idx.Incident(0).size(), 1u);
  EXPECT_EQ(idx.Incident(1).size(), 2u);
  EXPECT_EQ(idx.Incident(3).size(), 0u);
}

TEST(IncidenceIndexTest, RepeatedElementRegisteredOnce) {
  Structure s(GraphSignature(), 2);
  s.AddTuple(size_t{0}, Tuple{1, 1});
  s.Seal();
  IncidenceIndex idx(s);
  EXPECT_EQ(idx.Incident(1).size(), 1u);
}

// --- WeightMap ---------------------------------------------------------------

TEST(WeightMapTest, DenseElementWeights) {
  WeightMap w(1, 5);
  w.SetElem(2, 10);
  w.AddElem(2, -3);
  EXPECT_EQ(w.GetElem(2), 7);
  EXPECT_EQ(w.Get(Tuple{2}), 7);
  EXPECT_EQ(w.GetElem(0), 0);
}

TEST(WeightMapTest, SparseTupleWeights) {
  WeightMap w(2, 5);
  w.Set(Tuple{1, 2}, 4);
  w.Add(Tuple{1, 2}, 1);
  EXPECT_EQ(w.Get(Tuple{1, 2}), 5);
  EXPECT_EQ(w.Get(Tuple{2, 1}), 0);
}

TEST(WeightMapTest, LocalDistortion) {
  WeightMap a(1, 4), b(1, 4);
  a.SetElem(0, 10);
  b.SetElem(0, 12);
  b.SetElem(3, -1);
  EXPECT_EQ(a.LocalDistortion(b), 2);
  EXPECT_EQ(b.LocalDistortion(a), 2);
  EXPECT_FALSE(a == b);
  b.SetElem(0, 10);
  b.SetElem(3, 0);
  EXPECT_TRUE(a == b);
}

TEST(WeightMapTest, ForEachVisitsAll) {
  WeightMap w(1, 3);
  w.SetElem(1, 5);
  Weight total = 0;
  size_t count = 0;
  w.ForEach([&](const Tuple&, Weight value) {
    total += value;
    ++count;
  });
  EXPECT_EQ(count, 3u);
  EXPECT_EQ(total, 5);
}

// --- Gaifman -------------------------------------------------------------------

TEST(GaifmanTest, EdgesFromTuples) {
  Structure s = TinyGraph();
  GaifmanGraph g(s);
  EXPECT_EQ(g.Degree(1), 2u);
  EXPECT_EQ(g.Degree(3), 0u);
  EXPECT_EQ(g.MaxDegree(), 2u);
}

TEST(GaifmanTest, HigherArityTuplesClique) {
  Signature sig;
  sig.AddRelation("T", 3);
  Structure s(sig, 4);
  s.AddTuple(size_t{0}, Tuple{0, 1, 2});
  s.Seal();
  GaifmanGraph g(s);
  EXPECT_EQ(g.Degree(0), 2u);
  EXPECT_EQ(g.Degree(1), 2u);
  EXPECT_EQ(g.Degree(2), 2u);
}

TEST(GaifmanTest, Distances) {
  GaifmanGraph g(PathGraph(5, false));
  EXPECT_EQ(g.Distance(0, 0), 0u);
  EXPECT_EQ(g.Distance(0, 4), 4u);
  EXPECT_EQ(g.Distance(4, 0), 4u);  // Gaifman graph is undirected
}

TEST(GaifmanTest, DisconnectedDistanceIsInfinite) {
  Structure s = TinyGraph();  // element 3 isolated
  GaifmanGraph g(s);
  EXPECT_EQ(g.Distance(0, 3), UINT32_MAX);
}

TEST(GaifmanTest, SphereGrowsWithRadius) {
  GaifmanGraph g(PathGraph(9, false));
  EXPECT_EQ(g.Sphere(ElemId{4}, 0), (std::vector<ElemId>{4}));
  EXPECT_EQ(g.Sphere(ElemId{4}, 1), (std::vector<ElemId>{3, 4, 5}));
  EXPECT_EQ(g.Sphere(ElemId{4}, 2).size(), 5u);
}

TEST(GaifmanTest, TupleSphereIsUnion) {
  GaifmanGraph g(PathGraph(9, false));
  auto sphere = g.Sphere(Tuple{0, 8}, 1);
  EXPECT_EQ(sphere, (std::vector<ElemId>{0, 1, 7, 8}));
}

// --- Generators ------------------------------------------------------------------

TEST(GeneratorsTest, RandomBoundedDegreeRespectsBound) {
  Rng rng(42);
  for (size_t k : {2, 3, 5}) {
    Structure s = RandomBoundedDegreeGraph(200, k, 600, false, rng);
    GaifmanGraph g(s);
    EXPECT_LE(g.MaxDegree(), k);
  }
}

TEST(GeneratorsTest, CycleDegreeTwo) {
  GaifmanGraph g(CycleGraph(10, false));
  for (ElemId e = 0; e < 10; ++e) EXPECT_EQ(g.Degree(e), 2u);
}

TEST(GeneratorsTest, GridShape) {
  Structure s = GridGraph(4, 3);
  EXPECT_EQ(s.universe_size(), 12u);
  EXPECT_EQ(s.relation("H").size(), 9u);   // 3 per row x 3 rows
  EXPECT_EQ(s.relation("V").size(), 8u);   // 4 per column pair x 2
  GaifmanGraph g(s);
  EXPECT_EQ(g.MaxDegree(), 4u);
}

TEST(GeneratorsTest, ShatterInstanceShape) {
  Structure s = ShatterInstance(4);
  EXPECT_EQ(s.universe_size(), 16u + 4u);
  // Vertex i is linked to the bits of i: vertex 5 = 0b101 -> weights 0 and 2.
  EXPECT_TRUE(s.relation("E").Contains(Tuple{5, 16}));
  EXPECT_FALSE(s.relation("E").Contains(Tuple{5, 17}));
  EXPECT_TRUE(s.relation("E").Contains(Tuple{5, 18}));
}

TEST(GeneratorsTest, HalfShatterInstanceShape) {
  Structure s = HalfShatterInstance(6);
  // 2^3 params + vertex a + 6 weights.
  EXPECT_EQ(s.universe_size(), 8u + 1u + 6u);
  ElemId a = 8;
  for (ElemId j = 0; j < 6; ++j) {
    EXPECT_TRUE(s.relation("E").Contains(Tuple{a, static_cast<ElemId>(9 + j)}));
  }
}

TEST(GeneratorsTest, Figure1InstanceMatchesPaperFacts) {
  Structure s = Figure1Instance();
  ASSERT_EQ(s.universe_size(), 6u);
  const ElemId a = 0, b = 1, c = 2, d = 3, e = 4, f = 5;
  const Relation& r = s.relation("R");
  // W_a = W_b = {d, e}; W_c = {d}; W_f = {e}; W_d = {a}; W_e = {b}.
  EXPECT_TRUE(r.Contains(Tuple{a, d}) && r.Contains(Tuple{a, e}));
  EXPECT_TRUE(r.Contains(Tuple{b, d}) && r.Contains(Tuple{b, e}));
  EXPECT_TRUE(r.Contains(Tuple{c, d}) && !r.Contains(Tuple{c, e}));
  EXPECT_TRUE(r.Contains(Tuple{f, e}) && !r.Contains(Tuple{f, d}));
  EXPECT_TRUE(r.Contains(Tuple{d, a}) && r.Contains(Tuple{e, b}));
}

TEST(GeneratorsTest, RandomWeightsInRange) {
  Rng rng(1);
  Structure s = CycleGraph(20, false);
  WeightMap w = RandomWeights(s, 100, 200, rng);
  for (ElemId e = 0; e < 20; ++e) {
    EXPECT_GE(w.GetElem(e), 100);
    EXPECT_LE(w.GetElem(e), 200);
  }
}

// --- Neighborhood ------------------------------------------------------------------

TEST(NeighborhoodTest, ExtractPathCenter) {
  Structure s = PathGraph(7, false);
  TupleIncidence inc(s);
  Neighborhood nb = ExtractNeighborhood(inc, Tuple{3}, 1);
  EXPECT_EQ(nb.local.universe_size(), 3u);  // {2, 3, 4}
  EXPECT_EQ(nb.global_ids, (std::vector<ElemId>{2, 3, 4}));
  // Tuples fully inside: (2,3) and (3,4).
  EXPECT_EQ(nb.local.relation(size_t{0}).size(), 2u);
  ASSERT_EQ(nb.distinguished.size(), 1u);
  EXPECT_EQ(nb.global_ids[nb.distinguished[0]], 3u);
}

TEST(NeighborhoodTest, BoundaryTuplesExcluded) {
  Structure s = PathGraph(4, false);
  TupleIncidence inc(s);
  Neighborhood nb = ExtractNeighborhood(inc, Tuple{0}, 1);
  // Sphere {0, 1}; only tuple (0,1) is inside — (1,2) crosses the boundary.
  EXPECT_EQ(nb.local.universe_size(), 2u);
  EXPECT_EQ(nb.local.relation(size_t{0}).size(), 1u);
}

}  // namespace
}  // namespace qpwm
