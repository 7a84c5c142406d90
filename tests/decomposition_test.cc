#include <gtest/gtest.h>

#include "qpwm/logic/parser.h"
#include "qpwm/tree/decomposition.h"
#include "qpwm/tree/mso.h"
#include "qpwm/tree/query.h"
#include "qpwm/util/random.h"

namespace qpwm {
namespace {

class DecompositionTest : public ::testing::Test {
 protected:
  DecompositionTest() {
    sigma_.Intern("a");
    sigma_.Intern("b");
    sigma_.Intern("c");
  }

  TreeQuery CompileQuery(const std::string& text, std::vector<std::string> vars) {
    FormulaPtr f = MustParseFormula(text);
    const uint32_t param_arity = static_cast<uint32_t>(vars.size()) - 1;
    return TreeQuery::Compile(CompileMso(*f, sigma_, vars).ValueOrDie().dta, 3, param_arity)
        .ValueOrDie();
  }

  static TreeLayout LayOut(const BinaryTree& t) {
    return TreeLayout::Build(t, t.labels(), 3).ValueOrDie();
  }

  // Exhaustively verifies the Lemma 3 neutrality property of every paired
  // region: parameters outside the region cannot distinguish b+ from b-.
  void VerifyNeutrality(const TreeLayout& layout, const TreeQuery& query,
                        const std::vector<MarkRegion>& regions) {
    for (const MarkRegion& region : regions) {
      if (!region.paired()) continue;
      std::vector<bool> in_region(layout.size(), false);
      for (NodeId w : region.nodes) in_region[w] = true;
      if (query.param_arity() == 0) continue;  // no external parameters to test
      for (NodeId a = 0; a < layout.size(); ++a) {
        if (in_region[a]) continue;
        EXPECT_EQ(MemberWa(layout, query, a, region.b_plus),
                  MemberWa(layout, query, a, region.b_minus))
            << "a=" << a << " pair=(" << region.b_plus << "," << region.b_minus << ")";
      }
    }
  }

  Alphabet sigma_;
};

TEST_F(DecompositionTest, RegionsAreDisjointAndPairsInside) {
  const TreeQuery query = CompileQuery("LEQ(u, v) & P_b(v)", {"u", "v"});
  Rng rng(31);
  BinaryTree t = RandomBinaryTree(300, 3, rng);
  DecompositionStats stats;
  auto regions = FindMarkRegions(LayOut(t), query, {}, &stats);

  std::vector<int> owner(t.size(), -1);
  for (size_t i = 0; i < regions.size(); ++i) {
    for (NodeId v : regions[i].nodes) {
      EXPECT_EQ(owner[v], -1) << "node in two regions";
      owner[v] = static_cast<int>(i);
    }
    if (regions[i].paired()) {
      EXPECT_EQ(owner[regions[i].b_plus], static_cast<int>(i));
      EXPECT_EQ(owner[regions[i].b_minus], static_cast<int>(i));
      EXPECT_NE(regions[i].b_plus, regions[i].b_minus);
    }
  }
  EXPECT_EQ(stats.paired + stats.unpaired, regions.size());
  EXPECT_GT(stats.paired, 0u);
}

TEST_F(DecompositionTest, NeutralityHolds) {
  const TreeQuery query = CompileQuery("LEQ(u, v) & P_b(v)", {"u", "v"});
  Rng rng(32);
  for (int trial = 0; trial < 3; ++trial) {
    BinaryTree t = RandomBinaryTree(120 + rng.Below(150), 3, rng);
    DecompositionStats stats;
    const TreeLayout layout = LayOut(t);
    auto regions = FindMarkRegions(layout, query, {}, &stats);
    VerifyNeutrality(layout, query, regions);
  }
}

TEST_F(DecompositionTest, NeutralityOnChainTrees) {
  const TreeQuery query = CompileQuery("S1(u, v) | S2(u, v) | LEQ(v, u)", {"u", "v"});
  BinaryTree t = ChainTree(200, 3);
  DecompositionStats stats;
  const TreeLayout layout = LayOut(t);
  auto regions = FindMarkRegions(layout, query, {}, &stats);
  VerifyNeutrality(layout, query, regions);
}

TEST_F(DecompositionTest, ParamFreeQuery) {
  const TreeQuery query = CompileQuery("P_b(v) & ~ROOT(v)", {"v"});
  Rng rng(33);
  BinaryTree t = RandomBinaryTree(150, 3, rng);
  DecompositionStats stats;
  const TreeLayout layout = LayOut(t);
  auto regions = FindMarkRegions(layout, query, {}, &stats);
  EXPECT_GT(stats.paired, 0u);
  // For k = 0 neutrality means membership in W itself is equal.
  for (const auto& region : regions) {
    if (!region.paired()) continue;
    EXPECT_EQ(MemberWa(layout, query, 0, region.b_plus),
              MemberWa(layout, query, 0, region.b_minus));
  }
}

TEST_F(DecompositionTest, CapacityGrowsLinearly) {
  const TreeQuery query = CompileQuery("LEQ(u, v) & P_b(v)", {"u", "v"});
  Rng rng(34);
  size_t last_paired = 0;
  for (size_t n : {200, 400, 800}) {
    BinaryTree t = RandomBinaryTree(n, 3, rng);
    DecompositionStats stats;
    FindMarkRegions(LayOut(t), query, {}, &stats);
    EXPECT_GT(stats.paired, last_paired);
    last_paired = stats.paired;
  }
}

TEST_F(DecompositionTest, KeyedShuffleChangesPairs) {
  const TreeQuery query = CompileQuery("LEQ(u, v) & P_b(v)", {"u", "v"});
  Rng rng(35);
  BinaryTree t = RandomBinaryTree(400, 3, rng);
  DecompositionOptions o1, o2;
  o1.shuffle_seed = 1;
  o2.shuffle_seed = 2;
  const TreeLayout layout = LayOut(t);
  auto r1 = FindMarkRegions(layout, query, o1, nullptr);
  auto r2 = FindMarkRegions(layout, query, o2, nullptr);
  // Same decomposition skeleton is likely, but at least one pair should
  // differ between keys (the attacker cannot predict pair positions).
  bool any_diff = r1.size() != r2.size();
  for (size_t i = 0; !any_diff && i < r1.size(); ++i) {
    any_diff = r1[i].b_plus != r2[i].b_plus || r1[i].b_minus != r2[i].b_minus;
  }
  EXPECT_TRUE(any_diff);
}

TEST_F(DecompositionTest, CandidateFilterRespected) {
  const TreeQuery query = CompileQuery("LEQ(u, v) & P_b(v)", {"u", "v"});
  Rng rng(36);
  BinaryTree t = RandomBinaryTree(300, 3, rng);
  std::vector<bool> filter(t.size(), false);
  for (NodeId v = 0; v < t.size(); ++v) filter[v] = t.label(v) == 1;
  auto regions = FindMarkRegions(LayOut(t), query, {}, nullptr, &filter);
  for (const auto& region : regions) {
    if (!region.paired()) continue;
    EXPECT_TRUE(filter[region.b_plus]);
    EXPECT_TRUE(filter[region.b_minus]);
  }
}

TEST_F(DecompositionTest, MinRegionSizeHonored) {
  const TreeQuery query = CompileQuery("LEQ(u, v) & P_b(v)", {"u", "v"});
  Rng rng(37);
  BinaryTree t = RandomBinaryTree(300, 3, rng);
  DecompositionOptions opts;
  opts.min_region_size = 40;
  auto regions = FindMarkRegions(LayOut(t), query, opts, nullptr);
  for (const auto& region : regions) {
    EXPECT_GE(region.nodes.size(), 40u);
  }
}

}  // namespace
}  // namespace qpwm
