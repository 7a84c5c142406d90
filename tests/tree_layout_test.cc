// Oracle suite for the postorder-layout tree planner: every automaton run
// over a TreeLayout, the path-incremental region search and the lazily
// evaluated witness pool must reproduce the node-id-order runs, the
// full-rerun search and the eagerly evaluated pool kept in
// tests/reference_tree.h, bit for bit.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "qpwm/core/tree_scheme.h"
#include "qpwm/logic/parser.h"
#include "qpwm/tree/decomposition.h"
#include "qpwm/tree/mso.h"
#include "qpwm/tree/query.h"
#include "qpwm/util/random.h"
#include "qpwm/xml/encode.h"
#include "qpwm/xml/xpath.h"
#include "reference_tree.h"

namespace qpwm {
namespace {

struct NamedTree {
  std::string name;
  BinaryTree tree;
};

/// Random, chain and complete trees, small and mid-sized.
std::vector<NamedTree> Trees() {
  std::vector<NamedTree> trees;
  Rng rng(71);
  for (size_t n : {1, 2, 3, 50, 600}) {
    trees.push_back({"random " + std::to_string(n), RandomBinaryTree(n, 3, rng)});
  }
  trees.push_back({"chain 300", ChainTree(300, 3)});
  trees.push_back({"complete 255", CompleteTree(255, 3)});
  trees.push_back({"complete 300", CompleteTree(300, 3)});
  return trees;
}

struct NamedQuery {
  std::string name;
  Dta dta;
  uint32_t param_arity;
};

class TreeLayoutOracleTest : public ::testing::Test {
 protected:
  TreeLayoutOracleTest() {
    sigma_.Intern("a");
    sigma_.Intern("b");
    sigma_.Intern("c");
  }

  Dta CompileQuery(const std::string& text, std::vector<std::string> vars) {
    return CompileMso(*MustParseFormula(text), sigma_, vars).ValueOrDie().dta;
  }

  /// The automata of the tree query suite: each two-track query, its
  /// projection, track swap and complement, and a one-track query.
  std::vector<NamedQuery> Queries() {
    std::vector<NamedQuery> queries;
    for (const char* text : {"LEQ(u, v) & P_b(v)", "S1(u, v)", "S2(u, v) & P_a(v)"}) {
      Dta dta = CompileQuery(text, {"u", "v"});
      queries.push_back({std::string("project ") + text, ProjectParamTrack(dta, 3), 0});
      queries.push_back({std::string("swap ") + text, SwapPebbleTracks(dta, 3), 1});
      queries.push_back({std::string("~") + text, dta.Complement(), 1});
      queries.push_back({text, std::move(dta), 1});
    }
    queries.push_back({"P_c(v) & LEAF(v)", CompileQuery("P_c(v) & LEAF(v)", {"v"}), 0});
    return queries;
  }

  Alphabet sigma_;
};

/// Parameters to try on `t`: every node of a small tree, else the root and a
/// sample, plus one node outside the tree (no pebble).
std::vector<NodeId> Params(const BinaryTree& t, Rng& rng) {
  std::vector<NodeId> params;
  if (t.size() <= 3) {
    for (NodeId a = 0; a < t.size(); ++a) params.push_back(a);
  } else {
    params.push_back(t.root());
    for (int i = 0; i < 12; ++i) params.push_back(static_cast<NodeId>(rng.Below(t.size())));
  }
  params.push_back(static_cast<NodeId>(t.size()));
  return params;
}

TEST_F(TreeLayoutOracleTest, RunsMatchIdOrder) {
  const std::vector<NamedQuery> queries = Queries();
  Rng rng(72);
  for (const NamedTree& named : Trees()) {
    const BinaryTree& t = named.tree;
    const TreeLayout layout = TreeLayout::Build(t, t.labels(), 3).ValueOrDie();
    ASSERT_EQ(layout.size(), t.size());
    for (const NamedQuery& q : queries) {
      const TreeQuery query = TreeQuery::Compile(q.dta, 3, q.param_arity).ValueOrDie();
      const StepTable& table = query.table();
      for (NodeId a : q.param_arity == 1 ? Params(t, rng) : std::vector<NodeId>{0}) {
        const std::string where = q.name + " on " + named.name + " a=" + std::to_string(a);
        // StepTable::Run: states by position equal the id-order states.
        const uint32_t a_pos = q.param_arity == 1 ? layout.pos(a) : layout.absent();
        const std::vector<State> by_pos = table.Run(layout, a_pos, 3);
        const std::vector<State> by_id = IdOrderRun(
            table, t, IdOrderParamSymbols(table, t.labels(), 3, q.param_arity, a));
        ASSERT_EQ(by_pos.size(), t.size() + 1) << where;
        EXPECT_EQ(by_pos.back(), kAbsentChild) << where;
        for (uint32_t p = 0; p < layout.size(); ++p) {
          ASSERT_EQ(by_pos[p], by_id[layout.id(p)]) << where << " position " << p;
        }
        // EvaluateWa, and MemberWa on a sample of result nodes.
        const std::vector<NodeId> wa = EvaluateWa(layout, query, a);
        EXPECT_EQ(wa, IdOrderEvaluateWa(t, t.labels(), 3, table, q.param_arity, a))
            << where;
        for (int i = 0; i < 4; ++i) {
          const auto b = static_cast<NodeId>(rng.Below(t.size() + 1));
          EXPECT_EQ(MemberWa(layout, query, a, b),
                    IdOrderMemberWa(t, t.labels(), 3, table, q.param_arity, a, b))
              << where << " b=" << b;
        }
      }
    }
  }
}

TEST_F(TreeLayoutOracleTest, XPathAutomataMatchIdOrder) {
  // Two first names keep the compile to seconds (see tree_query_test).
  Rng rng(73);
  for (const XmlDocument& doc :
       {SchoolExampleDocument(), RandomSchoolDocument(30, rng, 0, 20, 2)}) {
    EncodedXml enc = EncodeXml(doc, {"exam"}).ValueOrDie();
    const auto base = static_cast<uint32_t>(enc.sigma.size());
    const TreeLayout layout = TreeLayout::Build(enc.tree, enc.tree.labels(), base).ValueOrDie();
    for (const char* xpath : {"school/student[firstname=$1]/exam", "school/student/exam"}) {
      XPathQuery q = XPathQuery::Parse(xpath).ValueOrDie();
      const TreeQuery query =
          TreeQuery::Compile(q.Compile(enc).ValueOrDie().dta, base, q.has_param() ? 1 : 0)
              .ValueOrDie();
      const StepTable& table = query.table();
      if (!q.has_param()) {
        EXPECT_EQ(EvaluateWa(layout, query, 0),
                  IdOrderEvaluateWa(enc.tree, enc.tree.labels(), base, table, 0, 0))
            << xpath;
        continue;
      }
      for (NodeId p : q.ParamTreeNodes(enc)) {
        EXPECT_EQ(EvaluateWa(layout, query, p),
                  IdOrderEvaluateWa(enc.tree, enc.tree.labels(), base, table, 1, p))
            << xpath << " param " << p;
      }
    }
  }
}

void ExpectSameRegions(const std::vector<MarkRegion>& got,
                       const std::vector<MarkRegion>& want, const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].root, want[i].root) << where << " region " << i;
    EXPECT_EQ(got[i].holes, want[i].holes) << where << " region " << i;
    EXPECT_EQ(got[i].nodes, want[i].nodes) << where << " region " << i;
    EXPECT_EQ(got[i].b_plus, want[i].b_plus) << where << " region " << i;
    EXPECT_EQ(got[i].b_minus, want[i].b_minus) << where << " region " << i;
  }
}

TEST_F(TreeLayoutOracleTest, RegionSearchMatchesFullRerun) {
  std::vector<NamedQuery> queries;
  queries.push_back({"LEQ(u, v) & P_b(v)", CompileQuery("LEQ(u, v) & P_b(v)", {"u", "v"}), 1});
  queries.push_back({"S1 | S2 | LEQ(v, u)",
                     CompileQuery("S1(u, v) | S2(u, v) | LEQ(v, u)", {"u", "v"}), 1});
  queries.push_back({"P_b(v) & ~ROOT(v)", CompileQuery("P_b(v) & ~ROOT(v)", {"v"}), 0});

  struct Sizes {
    size_t min_region_size;
    size_t max_region_size;
  };
  Rng rng(74);
  std::vector<NamedTree> trees;
  trees.push_back({"random 900", RandomBinaryTree(900, 3, rng)});
  trees.push_back({"chain 300", ChainTree(300, 3)});
  trees.push_back({"complete 511", CompleteTree(511, 3)});
  for (const NamedTree& named : trees) {
    const BinaryTree& t = named.tree;
    const TreeLayout layout = TreeLayout::Build(t, t.labels(), 3).ValueOrDie();
    std::vector<bool> b_labeled(t.size());
    for (NodeId v = 0; v < t.size(); ++v) b_labeled[v] = t.label(v) == 1;
    for (const NamedQuery& q : queries) {
      const TreeQuery query = TreeQuery::Compile(q.dta, 3, q.param_arity).ValueOrDie();
      for (const Sizes& sizes : {Sizes{0, 0}, Sizes{40, 0}, Sizes{3, 12}, Sizes{0, 20}}) {
        const std::vector<bool>* no_filter = nullptr;
        for (const std::vector<bool>* filter : {no_filter, &std::as_const(b_labeled)}) {
          DecompositionOptions opts;
          opts.shuffle_seed = 0x5EED + sizes.min_region_size;
          opts.min_region_size = sizes.min_region_size;
          opts.max_region_size = sizes.max_region_size;
          const std::string where = q.name + " on " + named.name + " min " +
                                    std::to_string(sizes.min_region_size) + " max " +
                                    std::to_string(sizes.max_region_size) +
                                    (filter != nullptr ? " filtered" : "");
          DecompositionStats got_stats, want_stats;
          const std::vector<MarkRegion> got =
              FindMarkRegions(layout, query, opts, &got_stats, filter);
          const std::vector<MarkRegion> want = FullRerunFindMarkRegions(
              t, t.labels(), 3, query.table(), q.param_arity, opts, &want_stats, filter);
          ExpectSameRegions(got, want, where);
          EXPECT_EQ(got_stats.attempts, want_stats.attempts) << where;
          EXPECT_EQ(got_stats.paired, want_stats.paired) << where;
          EXPECT_EQ(got_stats.unpaired, want_stats.unpaired) << where;
          EXPECT_EQ(got_stats.covered_nodes, want_stats.covered_nodes) << where;
        }
      }
    }
  }
}

TEST_F(TreeLayoutOracleTest, PlansMatchEagerPool) {
  std::vector<NamedQuery> queries;
  queries.push_back({"LEQ(u, v) & P_b(v)", CompileQuery("LEQ(u, v) & P_b(v)", {"u", "v"}), 1});
  // b in the left subtree of a: the root alone misses the right subtree's
  // pairs, so small pools fall back to the exact reverse run.
  queries.push_back({"left b",
                     CompileQuery("exists w (S1(u, w) & LEQ(w, v)) & P_b(v)", {"u", "v"}),
                     1});
  queries.push_back({"P_b(v) & ~LEAF(v)", CompileQuery("P_b(v) & ~LEAF(v)", {"v"}), 0});
  Rng rng(75);
  const BinaryTree t = RandomBinaryTree(2000, 3, rng);
  for (const NamedQuery& q : queries) {
    for (size_t attempts : {1, 16, 64}) {
      TreeSchemeOptions opts;
      opts.key = {0x51, attempts};
      opts.witness_attempts = attempts;
      const std::string where = q.name + " attempts " + std::to_string(attempts);
      const TreeScheme scheme =
          TreeScheme::Plan(t, t.labels(), 3, q.dta, q.param_arity, opts).ValueOrDie();
      const std::vector<TreeScheme::DetectablePair> want =
          EagerPoolPairs(t, t.labels(), 3, q.dta, q.param_arity, opts);
      ASSERT_GT(want.size(), 10u) << where;
      ASSERT_EQ(scheme.pairs().size(), want.size()) << where;
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(scheme.pairs()[i].b_plus, want[i].b_plus) << where << " pair " << i;
        EXPECT_EQ(scheme.pairs()[i].b_minus, want[i].b_minus) << where << " pair " << i;
        EXPECT_EQ(scheme.pairs()[i].witness, want[i].witness) << where << " pair " << i;
      }
    }
  }
}

}  // namespace
}  // namespace qpwm
