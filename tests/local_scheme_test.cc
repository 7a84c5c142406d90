#include <gtest/gtest.h>

#include "qpwm/core/distortion.h"
#include "qpwm/core/local_scheme.h"
#include "qpwm/logic/conjunctive.h"
#include "qpwm/logic/multiquery.h"
#include "qpwm/logic/query.h"
#include "qpwm/structure/generators.h"
#include "qpwm/util/random.h"

namespace qpwm {
namespace {

LocalSchemeOptions DefaultOptions(double epsilon = 0.5) {
  LocalSchemeOptions o;
  o.epsilon = epsilon;
  o.key = {0xFEED, 0xBEEF};
  return o;
}

BitVec RandomMark(size_t bits, Rng& rng) {
  BitVec m(bits);
  for (size_t i = 0; i < bits; ++i) m.Set(i, rng.Coin());
  return m;
}

TEST(LocalSchemeTest, PlanOnFigure1) {
  Structure g = Figure1Instance();
  auto query = AtomQuery::Adjacency("R");
  QueryIndex index(g, *query, AllParams(g, 1));
  auto scheme = LocalScheme::Plan(index, DefaultOptions(1.0)).ValueOrDie();
  EXPECT_EQ(scheme.NumTypes(), 3u);  // the paper's three neighborhood types
  EXPECT_GE(scheme.CapacityBits(), 1u);
  EXPECT_LE(scheme.DistortionBound(), scheme.Budget());
}

TEST(LocalSchemeTest, EmbedDetectRoundTripAllMarks) {
  Structure g = Figure1Instance();
  auto query = AtomQuery::Adjacency("R");
  QueryIndex index(g, *query, AllParams(g, 1));
  WeightMap w(1, 6);
  for (ElemId e = 0; e < 6; ++e) w.SetElem(e, 50 + e);

  auto scheme = LocalScheme::Plan(index, DefaultOptions(1.0)).ValueOrDie();
  const size_t bits = scheme.CapacityBits();
  ASSERT_GE(bits, 1u);
  ASSERT_LE(bits, 10u);
  for (uint64_t m = 0; m < (uint64_t{1} << bits); ++m) {
    BitVec mark = BitVec::FromUint64(m, bits);
    WeightMap marked = scheme.Embed(w, mark);
    EXPECT_TRUE(SatisfiesLocalDistortion(w, marked, 1));
    EXPECT_LE(GlobalDistortion(index, w, marked),
              static_cast<Weight>(scheme.Budget()));
    HonestServer server(index, marked);
    BitVec detected = scheme.Detect(w, server).ValueOrDie();
    EXPECT_EQ(detected, mark) << "mark " << m;
  }
}

class LocalSchemeSweepTest : public ::testing::TestWithParam<std::tuple<size_t, double>> {
};

TEST_P(LocalSchemeSweepTest, RoundTripOnBoundedDegreeGraphs) {
  auto [n, epsilon] = GetParam();
  Rng rng(n * 1000 + static_cast<uint64_t>(epsilon * 100));
  Structure g = RandomBoundedDegreeGraph(n, 3, 3 * n, false, rng);
  auto query = AtomQuery::Adjacency("E");
  QueryIndex index(g, *query, AllParams(g, 1));
  WeightMap w = RandomWeights(g, 100, 999, rng);

  auto scheme = LocalScheme::Plan(index, DefaultOptions(epsilon)).ValueOrDie();
  ASSERT_GT(scheme.CapacityBits(), 0u);
  EXPECT_LE(scheme.DistortionBound(), scheme.Budget());

  BitVec mark = RandomMark(scheme.CapacityBits(), rng);
  WeightMap marked = scheme.Embed(w, mark);
  EXPECT_TRUE(SatisfiesLocalDistortion(w, marked, 1));
  EXPECT_LE(GlobalDistortion(index, w, marked), static_cast<Weight>(scheme.Budget()));

  HonestServer server(index, marked);
  EXPECT_EQ(scheme.Detect(w, server).ValueOrDie(), mark);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, LocalSchemeSweepTest,
    ::testing::Combine(::testing::Values(size_t{40}, size_t{120}, size_t{400}),
                       ::testing::Values(1.0, 0.5, 0.25)));

TEST(LocalSchemeTest, DetectorReplansIdentically) {
  // The detector side replans from the same inputs and key; pair sets must
  // agree exactly.
  Rng rng(77);
  Structure g = RandomBoundedDegreeGraph(100, 3, 250, false, rng);
  auto query = AtomQuery::Adjacency("E");
  QueryIndex index(g, *query, AllParams(g, 1));
  auto s1 = LocalScheme::Plan(index, DefaultOptions()).ValueOrDie();
  auto s2 = LocalScheme::Plan(index, DefaultOptions()).ValueOrDie();
  ASSERT_EQ(s1.CapacityBits(), s2.CapacityBits());
  for (size_t i = 0; i < s1.marking().size(); ++i) {
    EXPECT_EQ(s1.marking().pairs()[i].plus, s2.marking().pairs()[i].plus);
    EXPECT_EQ(s1.marking().pairs()[i].minus, s2.marking().pairs()[i].minus);
  }
}

TEST(LocalSchemeTest, DifferentKeysDifferentPairs) {
  Rng rng(78);
  Structure g = RandomBoundedDegreeGraph(120, 3, 300, false, rng);
  auto query = AtomQuery::Adjacency("E");
  QueryIndex index(g, *query, AllParams(g, 1));
  LocalSchemeOptions o1 = DefaultOptions(), o2 = DefaultOptions();
  o2.key = {123, 321};
  auto s1 = LocalScheme::Plan(index, o1).ValueOrDie();
  auto s2 = LocalScheme::Plan(index, o2).ValueOrDie();
  bool differ = s1.CapacityBits() != s2.CapacityBits();
  for (size_t i = 0; !differ && i < s1.marking().size() && i < s2.marking().size();
       ++i) {
    differ = s1.marking().pairs()[i].plus != s2.marking().pairs()[i].plus;
  }
  EXPECT_TRUE(differ);
}

TEST(LocalSchemeTest, GreedySelectionRespectsBudget) {
  Rng rng(79);
  Structure g = RandomBoundedDegreeGraph(200, 4, 600, false, rng);
  auto query = AtomQuery::Adjacency("E");
  QueryIndex index(g, *query, AllParams(g, 1));
  LocalSchemeOptions opts = DefaultOptions(0.34);  // budget 3
  opts.selection = PairSelection::kGreedy;
  auto scheme = LocalScheme::Plan(index, opts).ValueOrDie();
  EXPECT_LE(scheme.DistortionBound(), 3u);
  EXPECT_GT(scheme.CapacityBits(), 0u);
}

TEST(LocalSchemeTest, GreedyCapacityAtLeastRandom) {
  Rng rng(80);
  Structure g = RandomBoundedDegreeGraph(300, 3, 800, false, rng);
  auto query = AtomQuery::Adjacency("E");
  QueryIndex index(g, *query, AllParams(g, 1));
  LocalSchemeOptions random_opts = DefaultOptions(0.5);
  LocalSchemeOptions greedy_opts = DefaultOptions(0.5);
  greedy_opts.selection = PairSelection::kGreedy;
  auto random_scheme = LocalScheme::Plan(index, random_opts).ValueOrDie();
  auto greedy_scheme = LocalScheme::Plan(index, greedy_opts).ValueOrDie();
  EXPECT_GE(greedy_scheme.CapacityBits(), random_scheme.CapacityBits());
}

TEST(LocalSchemeTest, ClassPairingAblation) {
  Rng rng(81);
  Structure g = RandomBoundedDegreeGraph(200, 3, 500, false, rng);
  auto query = AtomQuery::Adjacency("E");
  QueryIndex index(g, *query, AllParams(g, 1));
  LocalSchemeOptions with = DefaultOptions();
  LocalSchemeOptions without = DefaultOptions();
  without.class_pairing = false;
  auto s_with = LocalScheme::Plan(index, with).ValueOrDie();
  auto s_without = LocalScheme::Plan(index, without).ValueOrDie();
  // Both must respect the budget; class pairing should not hurt capacity.
  EXPECT_LE(s_with.DistortionBound(), s_with.Budget());
  EXPECT_LE(s_without.DistortionBound(), s_without.Budget());
}

TEST(LocalSchemeTest, InvalidEpsilonRejected) {
  Structure g = Figure1Instance();
  auto query = AtomQuery::Adjacency("R");
  QueryIndex index(g, *query, AllParams(g, 1));
  LocalSchemeOptions opts = DefaultOptions();
  opts.epsilon = 0.0;
  EXPECT_FALSE(LocalScheme::Plan(index, opts).ok());
  opts.epsilon = 1.5;
  EXPECT_FALSE(LocalScheme::Plan(index, opts).ok());
}

TEST(LocalSchemeTest, OutOfUniverseDomainRejected) {
  // The atom query answers a parameter outside the universe with an empty
  // set, so the index accepts it; typing its neighborhood must not.
  Structure g = Figure1Instance();
  auto query = AtomQuery::Adjacency("R");
  std::vector<Tuple> domain = AllParams(g, 1);
  domain.push_back({4000000000u});
  QueryIndex index(g, *query, std::move(domain));
  auto plan = LocalScheme::Plan(index, DefaultOptions());
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
}

TEST(LocalSchemeTest, DistanceQueryPreserved) {
  Rng rng(82);
  Structure g = RandomBoundedDegreeGraph(150, 3, 400, true, rng);
  DistanceQuery query(2);
  QueryIndex index(g, query, AllParams(g, 1));
  WeightMap w = RandomWeights(g, 10, 99, rng);
  LocalSchemeOptions opts = DefaultOptions(0.5);
  opts.rho = 2;
  auto scheme = LocalScheme::Plan(index, opts).ValueOrDie();
  if (scheme.CapacityBits() == 0) GTEST_SKIP() << "no capacity on this instance";
  BitVec mark = RandomMark(scheme.CapacityBits(), rng);
  WeightMap marked = scheme.Embed(w, mark);
  EXPECT_LE(GlobalDistortion(index, w, marked), static_cast<Weight>(scheme.Budget()));
  HonestServer server(index, marked);
  EXPECT_EQ(scheme.Detect(w, server).ValueOrDie(), mark);
}

TEST(LocalSchemeTest, Proposition1ZeroDistortionOnCanonicalParams) {
  // Proposition 1: an S-partition pair marking induces *exactly zero*
  // distortion on every canonical parameter. Verified over all marks with
  // fallback (cross-class) pairing disabled.
  Rng rng(84);
  for (uint64_t seed = 0; seed < 5; ++seed) {
    Structure g = RandomBoundedDegreeGraph(80, 3, 200, false, rng);
    auto query = AtomQuery::Adjacency("E");
    QueryIndex index(g, *query, AllParams(g, 1));
    WeightMap w = RandomWeights(g, 100, 999, rng);

    LocalSchemeOptions opts = DefaultOptions(1.0);
    opts.key = {seed, seed + 5};
    opts.fallback_pairing = false;  // pure S-partition pairs only
    auto scheme = LocalScheme::Plan(index, opts).ValueOrDie();
    if (scheme.CapacityBits() == 0) continue;

    const size_t bits = std::min<size_t>(scheme.CapacityBits(), 6);
    for (uint64_t m = 0; m < (uint64_t{1} << bits); ++m) {
      BitVec mark(scheme.CapacityBits());
      for (size_t i = 0; i < bits; ++i) mark.Set(i, (m >> i) & 1);
      WeightMap marked = scheme.Embed(w, mark);
      for (size_t rep : scheme.CanonicalParams()) {
        EXPECT_EQ(index.SumWeights(rep, w), index.SumWeights(rep, marked))
            << "canonical param " << rep << " mark " << m;
      }
    }
  }
}

TEST(LocalSchemeTest, EdgeWeightsArityTwo) {
  // Weights on 2-tuples (edges), as in weighted-graph instances: the scheme
  // machinery is weight-arity agnostic. Query: the edges leaving u.
  Rng rng(83);
  Structure g = RandomBoundedDegreeGraph(120, 3, 300, false, rng);
  CallbackQuery query(
      "out-edges", 1, 2,
      [](const Structure& s, const Tuple& params) {
        std::vector<Tuple> out;
        for (TupleRef t : s.relation("E").tuples()) {
          if (t[0] == params[0]) out.push_back(t.ToTuple());
        }
        return out;
      },
      1);
  QueryIndex index(g, query, AllParams(g, 1));
  ASSERT_GT(index.num_active(), 10u);

  WeightMap w(2, g.universe_size());
  for (TupleRef t : g.relation("E").tuples()) w.Set(t.ToTuple(), rng.Uniform(10, 99));

  LocalSchemeOptions opts = DefaultOptions(0.5);
  auto scheme = LocalScheme::Plan(index, opts).ValueOrDie();
  ASSERT_GT(scheme.CapacityBits(), 0u);

  BitVec mark = RandomMark(scheme.CapacityBits(), rng);
  WeightMap marked = scheme.Embed(w, mark);
  EXPECT_TRUE(SatisfiesLocalDistortion(w, marked, 1));
  EXPECT_LE(GlobalDistortion(index, w, marked), static_cast<Weight>(scheme.Budget()));
  HonestServer server(index, marked);
  EXPECT_EQ(scheme.Detect(w, server).ValueOrDie(), mark);
}

TEST(LocalSchemeTest, CycleInstanceZeroCostPairs) {
  // On a symmetric cycle with the adjacency query, pairing the two
  // neighbors of a vertex cancels everywhere: expect a healthy capacity at
  // the tightest budget.
  Structure g = CycleGraph(60, true);
  auto query = AtomQuery::Adjacency("E");
  QueryIndex index(g, *query, AllParams(g, 1));
  auto scheme = LocalScheme::Plan(index, DefaultOptions(1.0)).ValueOrDie();
  EXPECT_GT(scheme.CapacityBits(), 5u);
}

// FNV-1a digest of everything a local plan fixes: the active-element order
// of the index, the selected pairs and the witness plan (params, per-witness
// read ranges, reads).
uint64_t LocalPlanDigest(const LocalScheme& scheme) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  const QueryIndex& index = scheme.index();
  mix(index.num_active());
  for (size_t w = 0; w < index.num_active(); ++w) {
    const Tuple& t = index.active_element(w);
    mix(t.size());
    for (ElemId e : t) mix(e);
  }
  mix(scheme.CapacityBits());
  for (const WeightPair& p : scheme.marking().pairs()) {
    mix(p.plus);
    mix(p.minus);
  }
  const WitnessPlan& plan = scheme.witness_plan();
  mix(plan.params.size());
  for (const Tuple& a : plan.params) {
    mix(a.size());
    for (ElemId e : a) mix(e);
  }
  for (uint32_t off : plan.read_offsets) mix(off);
  for (const auto& [slot, key] : plan.reads) {
    mix(slot);
    mix(key);
  }
  return h;
}

uint64_t PlanDigest(const Structure& g, const ParametricQuery& query,
                    std::vector<Tuple> domain) {
  QueryIndex index(g, query, std::move(domain));
  auto scheme = LocalScheme::Plan(index, DefaultOptions(0.5)).ValueOrDie();
  EXPECT_GT(scheme.CapacityBits(), 0u) << query.Name();
  return LocalPlanDigest(scheme);
}

TEST(LocalSchemeTest, PlansPinnedAtSeed) {
  Rng rng(91);
  Structure g = RandomBoundedDegreeGraph(300, 3, 900, false, rng);
  auto adjacency = AtomQuery::Adjacency("E");
  EXPECT_EQ(PlanDigest(g, *adjacency, AllParams(g, 1)), 17440031079674585446ull);

  // The same edges inserted in reverse and left unsealed: the atom rows of
  // a parameter come back in relation order, not sorted order.
  Structure reversed(g.signature(), g.universe_size());
  const Relation& edges = g.relation("E");
  for (size_t t = edges.size(); t-- > 0;) reversed.AddTuple(0, edges.tuple(t).ToTuple());
  EXPECT_EQ(PlanDigest(reversed, *adjacency, AllParams(reversed, 1)), 5929676230990388969ull);

  Structure cycle = CycleGraph(90, true);
  DistanceQuery distance(1);
  EXPECT_EQ(PlanDigest(cycle, distance, AllParams(cycle, 1)), 4066859162475688035ull);

  auto two_hop = ConjunctiveQuery::Parse("E(u1, x1), E(x1, v1)").ValueOrDie();
  EXPECT_EQ(PlanDigest(g, two_hop, AllParams(g, 1)), 2729989564611757454ull);

  AtomQuery predecessors("E", {{false, 0}, {true, 0}}, 1, 1);
  UnionQuery both({adjacency.get(), &predecessors});
  EXPECT_EQ(PlanDigest(g, both, both.FullDomain(g)), 7477128797236175348ull);
}

}  // namespace
}  // namespace qpwm
