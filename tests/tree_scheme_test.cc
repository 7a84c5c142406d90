#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "qpwm/core/attack.h"
#include "qpwm/core/tree_scheme.h"
#include "qpwm/logic/parser.h"
#include "qpwm/tree/mso.h"
#include "qpwm/tree/query.h"
#include "qpwm/util/random.h"

namespace qpwm {
namespace {

class TreeSchemeTest : public ::testing::Test {
 protected:
  TreeSchemeTest() {
    sigma_.Intern("a");
    sigma_.Intern("b");
    sigma_.Intern("c");
    query_ = CompileMso(*MustParseFormula("LEQ(u, v) & P_b(v)"), sigma_, {"u", "v"})
                 .ValueOrDie()
                 .dta;
  }

  TreeSchemeOptions Options() {
    TreeSchemeOptions o;
    o.key = {0xAB, 0xCD};
    return o;
  }

  WeightMap RandomTreeWeights(const BinaryTree& t, Rng& rng) {
    WeightMap w(1, t.size());
    for (NodeId v = 0; v < t.size(); ++v) w.SetElem(v, rng.Uniform(100, 999));
    return w;
  }

  Weight MaxQueryDrift(const BinaryTree& t, const Dta& dta, const WeightMap& w0,
                       const WeightMap& w1) {
    const TreeLayout layout = TreeLayout::Build(t, t.labels(), 3).ValueOrDie();
    const TreeQuery query = TreeQuery::Compile(dta, 3, 1).ValueOrDie();
    Weight worst = 0;
    for (NodeId a = 0; a < t.size(); ++a) {
      Weight f0 = 0, f1 = 0;
      for (NodeId b : EvaluateWa(layout, query, a)) {
        f0 += w0.GetElem(b);
        f1 += w1.GetElem(b);
      }
      worst = std::max(worst, std::abs(f1 - f0));
    }
    return worst;
  }

  Alphabet sigma_;
  Dta query_{0, 1};
};

TEST_F(TreeSchemeTest, RoundTripManyMarksSmallTree) {
  Rng rng(51);
  BinaryTree t = RandomBinaryTree(120, 3, rng);
  WeightMap w = RandomTreeWeights(t, rng);
  auto scheme = TreeScheme::Plan(t, t.labels(), 3, query_, 1, Options()).ValueOrDie();
  const size_t bits = scheme.CapacityBits();
  ASSERT_GT(bits, 0u);
  // All marks when feasible, otherwise a 64-mark random sample.
  const uint64_t total = bits <= 6 ? (uint64_t{1} << bits) : 64;
  for (uint64_t trial = 0; trial < total; ++trial) {
    BitVec mark(bits);
    if (bits <= 6) {
      mark = BitVec::FromUint64(trial, bits);
    } else {
      for (size_t i = 0; i < bits; ++i) mark.Set(i, rng.Coin());
    }
    WeightMap marked = scheme.Embed(w, mark);
    EXPECT_LE(w.LocalDistortion(marked), 1);
    EXPECT_LE(MaxQueryDrift(t, query_, w, marked), scheme.DistortionBound());
    HonestTreeServer server(t, t.labels(), 3, query_, 1, marked);
    EXPECT_EQ(scheme.Detect(w, server).ValueOrDie(), mark);
  }
}

class TreeSchemeSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(TreeSchemeSizeTest, DistortionAtMostOneAndDetectable) {
  const size_t n = GetParam();
  Alphabet sigma;
  sigma.Intern("a");
  sigma.Intern("b");
  sigma.Intern("c");
  Dta query = CompileMso(*MustParseFormula("LEQ(u, v) & P_b(v)"), sigma, {"u", "v"})
                  .ValueOrDie()
                  .dta;
  Rng rng(n);
  BinaryTree t = RandomBinaryTree(n, 3, rng);
  WeightMap w(1, n);
  for (NodeId v = 0; v < n; ++v) w.SetElem(v, rng.Uniform(0, 500));

  TreeSchemeOptions opts;
  opts.key = {n, n + 1};
  auto scheme = TreeScheme::Plan(t, t.labels(), 3, query, 1, opts).ValueOrDie();
  ASSERT_GT(scheme.CapacityBits(), 0u);

  BitVec mark(scheme.CapacityBits());
  for (size_t i = 0; i < mark.size(); ++i) mark.Set(i, rng.Coin());
  WeightMap marked = scheme.Embed(w, mark);

  // Theorem 5's structural guarantee: max drift over every parameter <= 1.
  const TreeLayout layout = TreeLayout::Build(t, t.labels(), 3).ValueOrDie();
  const TreeQuery compiled = TreeQuery::Compile(query, 3, 1).ValueOrDie();
  Weight worst = 0;
  for (NodeId a = 0; a < n; ++a) {
    Weight f0 = 0, f1 = 0;
    for (NodeId b : EvaluateWa(layout, compiled, a)) {
      f0 += w.GetElem(b);
      f1 += marked.GetElem(b);
    }
    worst = std::max(worst, std::abs(f1 - f0));
  }
  EXPECT_LE(worst, 1);

  HonestTreeServer server(t, t.labels(), 3, query, 1, marked);
  EXPECT_EQ(scheme.Detect(w, server).ValueOrDie(), mark);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TreeSchemeSizeTest,
                         ::testing::Values(200, 500, 1200));

TEST_F(TreeSchemeTest, CapacityScalesWithTreeSize) {
  Rng rng(52);
  size_t last = 0;
  for (size_t n : {300, 900, 2700}) {
    BinaryTree t = RandomBinaryTree(n, 3, rng);
    auto scheme = TreeScheme::Plan(t, t.labels(), 3, query_, 1, Options()).ValueOrDie();
    EXPECT_GT(scheme.CapacityBits(), last);
    last = scheme.CapacityBits();
  }
}

TEST_F(TreeSchemeTest, ParamFreeQueryScheme) {
  Alphabet sigma;
  sigma.Intern("a");
  sigma.Intern("b");
  sigma.Intern("c");
  Dta query = CompileMso(*MustParseFormula("P_b(v) & ~LEAF(v)"), sigma, {"v"})
                  .ValueOrDie()
                  .dta;
  Rng rng(53);
  BinaryTree t = RandomBinaryTree(400, 3, rng);
  WeightMap w = RandomTreeWeights(t, rng);
  auto scheme = TreeScheme::Plan(t, t.labels(), 3, query, 0, Options()).ValueOrDie();
  ASSERT_GT(scheme.CapacityBits(), 0u);
  BitVec mark(scheme.CapacityBits());
  mark.Set(0, true);
  WeightMap marked = scheme.Embed(w, mark);
  // The single (empty-parameter) query drifts by at most 1 in total... per
  // region pair it cancels exactly since both pair nodes are in W together.
  Weight f0 = 0, f1 = 0;
  const TreeLayout layout = TreeLayout::Build(t, t.labels(), 3).ValueOrDie();
  for (NodeId b : EvaluateWa(layout, TreeQuery::Compile(query, 3, 0).ValueOrDie(), 0)) {
    f0 += w.GetElem(b);
    f1 += marked.GetElem(b);
  }
  EXPECT_EQ(f0, f1);  // pairs inside W cancel on the one query
  HonestTreeServer server(t, t.labels(), 3, query, 0, marked);
  EXPECT_EQ(scheme.Detect(w, server).ValueOrDie(), mark);
}

TEST_F(TreeSchemeTest, WrongTrackCountRejected) {
  Rng rng(54);
  BinaryTree t = RandomBinaryTree(50, 3, rng);
  // query_ is a 2-track automaton; claiming param_arity 0 mismatches.
  EXPECT_FALSE(TreeScheme::Plan(t, t.labels(), 3, query_, 0, Options()).ok());
}

TEST_F(TreeSchemeTest, LabelsOutsideTheAlphabetRejected) {
  Rng rng(61);
  BinaryTree t = RandomBinaryTree(50, 3, rng);
  std::vector<uint32_t> labels = t.labels();
  labels[7] = 3;  // base_count is 3
  auto bad_label = TreeScheme::Plan(t, labels, 3, query_, 1, Options());
  ASSERT_FALSE(bad_label.ok());
  EXPECT_EQ(bad_label.status().code(), StatusCode::kInvalidArgument);
  labels.pop_back();
  labels[7] = 0;
  auto short_labels = TreeScheme::Plan(t, labels, 3, query_, 1, Options());
  ASSERT_FALSE(short_labels.ok());
  EXPECT_EQ(short_labels.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(TreeSchemeTest, DetectorSeesTamperedStructure) {
  Rng rng(55);
  BinaryTree t = RandomBinaryTree(300, 3, rng);
  WeightMap w = RandomTreeWeights(t, rng);
  auto scheme = TreeScheme::Plan(t, t.labels(), 3, query_, 1, Options()).ValueOrDie();
  if (scheme.CapacityBits() == 0) GTEST_SKIP();
  // A server answering a *different* tree's results: witness elements go
  // missing and detection reports failure rather than a wrong mark.
  BinaryTree other = RandomBinaryTree(10, 3, rng);
  HonestTreeServer bogus(other, other.labels(), 3, query_, 1,
                         WeightMap(1, other.size()));
  auto result = scheme.Detect(w, bogus);
  EXPECT_FALSE(result.ok());
}

TEST_F(TreeSchemeTest, ChainTreesWork) {
  BinaryTree t = ChainTree(600, 3);
  Rng rng(56);
  WeightMap w = RandomTreeWeights(t, rng);
  auto scheme = TreeScheme::Plan(t, t.labels(), 3, query_, 1, Options()).ValueOrDie();
  ASSERT_GT(scheme.CapacityBits(), 0u);
  BitVec mark(scheme.CapacityBits());
  for (size_t i = 0; i < mark.size(); i += 2) mark.Set(i, true);
  WeightMap marked = scheme.Embed(w, mark);
  HonestTreeServer server(t, t.labels(), 3, query_, 1, marked);
  EXPECT_EQ(scheme.Detect(w, server).ValueOrDie(), mark);
}

// --- Flat serving and hostile parameters ----------------------------------

/// Requires server.AnswerAllFlat to return exactly server.Answer's rows,
/// parameter by parameter and row by row, into a batch that held stale rows.
void ExpectFlatMatchesAnswer(const BatchAnswerServer& server,
                             const std::vector<Tuple>& params) {
  FlatAnswerBatch flat;
  flat.AppendRow(Tuple{7, 7}, 99);
  flat.FinishParam();
  server.AnswerAllFlat(params, flat);
  ASSERT_EQ(flat.num_params(), params.size());
  ASSERT_EQ(flat.elem_offsets.size(), flat.num_rows() + 1);
  ASSERT_EQ(flat.elem_offsets.back(), flat.elems.size());
  for (size_t p = 0; p < params.size(); ++p) {
    const AnswerSet want = server.Answer(params[p]);
    const size_t first = flat.param_offsets[p];
    ASSERT_EQ(flat.param_offsets[p + 1] - first, want.size()) << "param " << p;
    for (size_t k = 0; k < want.size(); ++k) {
      const size_t r = first + k;
      const Tuple got(flat.elems.begin() + flat.elem_offsets[r],
                      flat.elems.begin() + flat.elem_offsets[r + 1]);
      EXPECT_EQ(got, want[k].element) << "param " << p << " row " << k;
      EXPECT_EQ(flat.weights[r], want[k].weight) << "param " << p << " row " << k;
    }
  }
}

TEST_F(TreeSchemeTest, FlatServingMatchesAnswer) {
  Rng rng(57);
  BinaryTree t = RandomBinaryTree(300, 3, rng);
  HonestTreeServer server(t, t.labels(), 3, query_, 1, RandomTreeWeights(t, rng));
  std::vector<Tuple> params{Tuple{t.root()}, Tuple{}, Tuple{1, 2},
                            Tuple{static_cast<NodeId>(t.size())}};
  for (NodeId v = 0; v < t.size(); v += 3) params.push_back(Tuple{v});
  ExpectFlatMatchesAnswer(server, params);
  size_t rows = 0;
  for (const Tuple& p : params) rows += server.Answer(p).size();
  EXPECT_GT(rows, 0u);

  // Behind a tampering server, whose flat path starts from this one's.
  TamperedAnswerServer tampered(server);
  ExpectFlatMatchesAnswer(tampered, params);
  for (NodeId v = 0; v < t.size(); v += 4) tampered.Erase(Tuple{v});
  ExpectFlatMatchesAnswer(tampered, params);
  tampered.InsertAt(params[4], {Tuple{9000}, 7});
  tampered.InsertEverywhere({Tuple{9001}, 8});
  ExpectFlatMatchesAnswer(tampered, params);

  // A parameter-free query is served the same way.
  Dta leaves = CompileMso(*MustParseFormula("P_c(v) & LEAF(v)"), sigma_, {"v"})
                   .ValueOrDie()
                   .dta;
  HonestTreeServer unary(t, t.labels(), 3, leaves, 0, RandomTreeWeights(t, rng));
  ExpectFlatMatchesAnswer(unary, {Tuple{}, Tuple{3}, Tuple{}});
  EXPECT_GT(unary.Answer(Tuple{}).size(), 0u);
}

TEST_F(TreeSchemeTest, WrongArityParamGetsEmptyAnswer) {
  Rng rng(58);
  BinaryTree t = RandomBinaryTree(50, 3, rng);
  HonestTreeServer server(t, t.labels(), 3, query_, 1, RandomTreeWeights(t, rng));
  ASSERT_GT(server.Answer(Tuple{t.root()}).size(), 0u);
  for (const Tuple& bad : {Tuple{}, Tuple{t.root(), t.root()}}) {
    EXPECT_TRUE(server.Answer(bad).empty());
    FlatAnswerBatch flat;
    server.AnswerAllFlat({bad, Tuple{t.root()}, bad}, flat);
    ASSERT_EQ(flat.num_params(), 3u);
    EXPECT_EQ(flat.param_offsets[1], 0u);
    EXPECT_EQ(flat.param_offsets[2] - flat.param_offsets[1],
              server.Answer(Tuple{t.root()}).size());
    EXPECT_EQ(flat.param_offsets[3], flat.param_offsets[2]);
  }
}

TEST_F(TreeSchemeTest, OutOfTreeParamGetsEmptyAnswer) {
  // P_b(v) over (u, v) answers every b-labeled node for any parameter in
  // the tree; a node outside it places no pebble and must not be answered.
  Dta any_b = CompileMso(*MustParseFormula("P_b(v)"), sigma_, {"u", "v"})
                  .ValueOrDie()
                  .dta;
  Rng rng(59);
  BinaryTree t = RandomBinaryTree(50, 3, rng);
  HonestTreeServer server(t, t.labels(), 3, any_b, 1, RandomTreeWeights(t, rng));
  ASSERT_GT(server.Answer(Tuple{0}).size(), 0u);
  for (NodeId outside : {NodeId{50}, NodeId{1000}, kNoNode}) {
    EXPECT_TRUE(server.Answer(Tuple{outside}).empty()) << outside;
    FlatAnswerBatch flat;
    server.AnswerAllFlat({Tuple{outside}}, flat);
    EXPECT_EQ(flat.num_params(), 1u);
    EXPECT_EQ(flat.num_rows(), 0u) << outside;
  }
}

// --- Trees that cannot be laid out -------------------------------------------

/// An empty tree, one that was never finalized, and one whose Finalize
/// failed (two roots).
std::vector<BinaryTree> TreesWithoutLayout() {
  std::vector<BinaryTree> trees(3);
  for (BinaryTree* t : {&trees[1], &trees[2]}) {
    for (uint32_t i = 0; i < 4; ++i) t->AddNode(i % 3);
    t->SetLeft(0, 1);
  }
  EXPECT_FALSE(trees[2].Finalize().ok());
  return trees;
}

TEST_F(TreeSchemeTest, PlanRejectsTreesWithoutLayout) {
  for (const BinaryTree& t : TreesWithoutLayout()) {
    auto planned = TreeScheme::Plan(t, t.labels(), 3, query_, 1, Options());
    ASSERT_FALSE(planned.ok()) << t.size() << " nodes";
    EXPECT_EQ(planned.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(TreeSchemeTest, ServerOverTreeWithoutLayoutAnswersEmpty) {
  for (const BinaryTree& t : TreesWithoutLayout()) {
    HonestTreeServer server(t, t.labels(), 3, query_, 1, WeightMap(1, t.size()));
    EXPECT_TRUE(server.Answer(Tuple{0}).empty()) << t.size() << " nodes";
    FlatAnswerBatch flat;
    server.AnswerAllFlat({Tuple{0}, Tuple{1}}, flat);
    EXPECT_EQ(flat.num_params(), 2u);
    EXPECT_EQ(flat.num_rows(), 0u) << t.size() << " nodes";
  }
}

// --- Automata that do not match the query's pebble tracks --------------------

/// A one-track automaton claimed with a parameter, a two-track one claimed
/// with parameter arity 2 (the scheme supports 0 or 1) or over a wider base
/// alphabet, and a base count whose shifted alphabet wraps around 32 bits to
/// the automaton's.
struct MismatchedQuery {
  const Dta* dta;
  uint32_t base_count;
  uint32_t param_arity;
};

class MismatchedQueryTest : public TreeSchemeTest {
 protected:
  MismatchedQueryTest()
      : leaves_(CompileMso(*MustParseFormula("P_c(v) & LEAF(v)"), sigma_, {"v"})
                    .ValueOrDie()
                    .dta) {}

  std::vector<MismatchedQuery> Mismatched() const {
    return {{&leaves_, 3, 1}, {&query_, 3, 2}, {&query_, 4, 1}, {&leaves_, 0x80000003u, 0}};
  }

  Dta leaves_;
};

TEST_F(MismatchedQueryTest, DoesNotCompileOrPlan) {
  Rng rng(63);
  BinaryTree t = RandomBinaryTree(50, 3, rng);
  for (const MismatchedQuery& q : Mismatched()) {
    const std::string what = "base " + std::to_string(q.base_count) + " arity " +
                             std::to_string(q.param_arity);
    const Result<TreeQuery> compiled = TreeQuery::Compile(*q.dta, q.base_count, q.param_arity);
    ASSERT_FALSE(compiled.ok()) << what;
    EXPECT_EQ(compiled.status().code(), StatusCode::kInvalidArgument) << what;
    auto planned = TreeScheme::Plan(t, t.labels(), q.base_count, *q.dta, q.param_arity,
                                    Options());
    ASSERT_FALSE(planned.ok()) << what;
    EXPECT_EQ(planned.status().code(), StatusCode::kInvalidArgument) << what;
  }
}

TEST_F(MismatchedQueryTest, ServerAnswersEmpty) {
  Rng rng(64);
  BinaryTree t = RandomBinaryTree(50, 3, rng);
  const std::vector<Tuple> params{Tuple{t.root()}, Tuple{}, Tuple{t.root(), 0}, Tuple{0}};
  for (const MismatchedQuery& q : Mismatched()) {
    const std::string what = "base " + std::to_string(q.base_count) + " arity " +
                             std::to_string(q.param_arity);
    HonestTreeServer server(t, t.labels(), q.base_count, *q.dta, q.param_arity,
                            RandomTreeWeights(t, rng));
    for (const Tuple& p : params) EXPECT_TRUE(server.Answer(p).empty()) << what;
    // One empty row range per parameter, over a batch that held a stale row.
    FlatAnswerBatch flat;
    flat.AppendRow(Tuple{7}, 99);
    flat.FinishParam();
    server.AnswerAllFlat(params, flat);
    ASSERT_EQ(flat.num_params(), params.size()) << what;
    EXPECT_EQ(flat.num_rows(), 0u) << what;
  }
}

TEST_F(TreeSchemeTest, RegionSearchChecksFilterSize) {
  Rng rng(62);
  BinaryTree t = RandomBinaryTree(50, 3, rng);
  const TreeLayout layout = TreeLayout::Build(t, t.labels(), 3).ValueOrDie();
  const TreeQuery query = TreeQuery::Compile(query_, 3, 1).ValueOrDie();
  const std::vector<bool> short_filter(t.size() - 1, true);
  EXPECT_DEATH(FindMarkRegions(layout, query, {}, nullptr, &short_filter),
               "candidate_filter");
}

// --- Pinned plans -------------------------------------------------------------

/// FNV-1a digest of everything a plan decides: its regions (root, holes,
/// nodes, pair), the decomposition stats, and per hidden bit the pair it
/// moves and the witness parameter the detector reads it through. Also
/// counts the distinct witnesses.
struct PlanRecord {
  uint64_t digest = 0;
  size_t distinct_witnesses = 0;
};

PlanRecord RecordPlan(const TreeScheme& scheme, const BinaryTree& t) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(scheme.regions().size());
  for (const MarkRegion& r : scheme.regions()) {
    mix(r.root);
    mix(r.holes.size());
    for (NodeId v : r.holes) mix(v);
    mix(r.nodes.size());
    for (NodeId v : r.nodes) mix(v);
    mix(r.b_plus);
    mix(r.b_minus);
  }
  const DecompositionStats& st = scheme.stats();
  for (size_t x : {st.attempts, st.paired, st.unpaired, st.covered_nodes}) mix(x);

  // Pair i: the nodes a one-bit mark moves up and down.
  const WeightMap zero(1, t.size());
  mix(scheme.CapacityBits());
  for (size_t i = 0; i < scheme.CapacityBits(); ++i) {
    BitVec mark(scheme.CapacityBits());
    mark.Set(i, true);
    const WeightMap marked = scheme.Embed(zero, mark);
    for (NodeId v = 0; v < t.size(); ++v) {
      if (marked.GetElem(v) != 0) {
        mix(v);
        mix(static_cast<uint64_t>(marked.GetElem(v)));
      }
    }
  }
  // Witnesses, in pair order.
  std::vector<Tuple> witnesses;
  for (const TreeScheme::DetectablePair& pair : scheme.pairs()) {
    witnesses.push_back(pair.witness);
  }
  EXPECT_EQ(witnesses.size(), scheme.CapacityBits());
  for (const Tuple& w : witnesses) {
    mix(w.size());
    for (ElemId e : w) mix(e);
  }
  std::sort(witnesses.begin(), witnesses.end());
  const auto distinct = std::unique(witnesses.begin(), witnesses.end());
  return {h, static_cast<size_t>(distinct - witnesses.begin())};
}

// The digests were recorded from the hashed-step planner; the step-table
// planner must reproduce them bit for bit.
TEST_F(TreeSchemeTest, PlansPinnedAtSeed) {
  Rng rng(60);
  BinaryTree t = RandomBinaryTree(3000, 3, rng);
  auto scheme = TreeScheme::Plan(t, t.labels(), 3, query_, 1, Options()).ValueOrDie();
  ASSERT_GT(scheme.CapacityBits(), 100u);
  EXPECT_EQ(RecordPlan(scheme, t).digest, 10167811105156910903ull);

  // b in the left subtree of a: with the root as the only pooled witness,
  // the right subtree's pairs need the exact reverse run.
  Dta left_b = CompileMso(*MustParseFormula("exists w (S1(u, w) & LEQ(w, v)) & P_b(v)"),
                          sigma_, {"u", "v"})
                   .ValueOrDie()
                   .dta;
  TreeSchemeOptions root_only = Options();
  root_only.witness_attempts = 1;
  auto reverse = TreeScheme::Plan(t, t.labels(), 3, left_b, 1, root_only).ValueOrDie();
  ASSERT_GT(reverse.CapacityBits(), 100u);
  const PlanRecord reverse_record = RecordPlan(reverse, t);
  EXPECT_GT(reverse_record.distinct_witnesses, 1u);
  EXPECT_EQ(reverse_record.digest, 7742318476967105840ull);

  Dta inner_b = CompileMso(*MustParseFormula("P_b(v) & ~LEAF(v)"), sigma_, {"v"})
                    .ValueOrDie()
                    .dta;
  auto unary = TreeScheme::Plan(t, t.labels(), 3, inner_b, 0, Options()).ValueOrDie();
  ASSERT_GT(unary.CapacityBits(), 100u);
  EXPECT_EQ(RecordPlan(unary, t).digest, 816875832107636256ull);
}

}  // namespace
}  // namespace qpwm
