#include <gtest/gtest.h>

#include "qpwm/core/distortion.h"
#include "qpwm/core/incremental.h"
#include "qpwm/core/tree_scheme.h"
#include "qpwm/logic/parser.h"
#include "qpwm/tree/mso.h"
#include "qpwm/logic/query.h"
#include "qpwm/structure/canon_cache.h"
#include "qpwm/structure/generators.h"
#include "qpwm/util/random.h"

namespace qpwm {
namespace {

TEST(WeightsOnlyUpdateTest, MarkDeltasCarryOver) {
  WeightMap old_original(1, 4), old_marked(1, 4), new_original(1, 4);
  for (ElemId e = 0; e < 4; ++e) {
    old_original.SetElem(e, 100 + e);
    old_marked.SetElem(e, 100 + e);
    new_original.SetElem(e, 200 + 2 * e);
  }
  old_marked.AddElem(1, +1);
  old_marked.AddElem(2, -1);

  WeightMap new_marked =
      PropagateWeightsOnlyUpdate(old_original, old_marked, new_original);
  EXPECT_EQ(new_marked.GetElem(0), 200);
  EXPECT_EQ(new_marked.GetElem(1), 203);  // 202 + 1
  EXPECT_EQ(new_marked.GetElem(2), 203);  // 204 - 1
  EXPECT_EQ(new_marked.GetElem(3), 206);
}

TEST(WeightsOnlyUpdateTest, DetectorSurvivesUpdateStorm) {
  // Theorem 7 end to end: update weights repeatedly; propagate; detect.
  Rng rng(61);
  Structure g = RandomBoundedDegreeGraph(150, 3, 400, false, rng);
  auto query = AtomQuery::Adjacency("E");
  QueryIndex index(g, *query, AllParams(g, 1));
  WeightMap original = RandomWeights(g, 100, 999, rng);

  LocalSchemeOptions opts;
  opts.epsilon = 0.5;
  opts.key = {61, 62};
  auto scheme = LocalScheme::Plan(index, opts).ValueOrDie();
  ASSERT_GT(scheme.CapacityBits(), 0u);
  BitVec mark(scheme.CapacityBits());
  for (size_t i = 0; i < mark.size(); ++i) mark.Set(i, rng.Coin());
  WeightMap marked = scheme.Embed(original, mark);

  for (int round = 0; round < 5; ++round) {
    WeightMap new_original = RandomWeights(g, 100, 999, rng);
    marked = PropagateWeightsOnlyUpdate(original, marked, new_original);
    original = new_original;
    // Same global distortion bound as at embed time (Theorem 7).
    EXPECT_LE(GlobalDistortion(index, original, marked),
              static_cast<Weight>(scheme.Budget()));
    HonestServer server(index, marked);
    EXPECT_EQ(scheme.Detect(original, server).ValueOrDie(), mark) << round;
  }
}

TEST(WeightsOnlyUpdateTest, TreeSchemeSurvivesGradeRefresh) {
  // Theorem 7 applies verbatim to the tree scheme: the school re-grades
  // every student, the owner propagates the mark deltas, detection holds.
  Alphabet sigma;
  sigma.Intern("a");
  sigma.Intern("b");
  sigma.Intern("c");
  Dta query = CompileMso(*MustParseFormula("LEQ(u, v) & P_b(v)"), sigma, {"u", "v"})
                  .ValueOrDie()
                  .dta;
  Rng rng(63);
  BinaryTree t = RandomBinaryTree(400, 3, rng);
  WeightMap original(1, t.size());
  for (NodeId v = 0; v < t.size(); ++v) original.SetElem(v, rng.Uniform(0, 20));

  TreeSchemeOptions opts;
  opts.key = {63, 64};
  auto scheme = TreeScheme::Plan(t, t.labels(), 3, query, 1, opts).ValueOrDie();
  ASSERT_GT(scheme.CapacityBits(), 0u);
  BitVec mark(scheme.CapacityBits());
  for (size_t i = 0; i < mark.size(); ++i) mark.Set(i, rng.Coin());
  WeightMap marked = scheme.Embed(original, mark);

  for (int round = 0; round < 3; ++round) {
    WeightMap refreshed(1, t.size());
    for (NodeId v = 0; v < t.size(); ++v) refreshed.SetElem(v, rng.Uniform(0, 20));
    marked = PropagateWeightsOnlyUpdate(original, marked, refreshed);
    original = refreshed;
    HonestTreeServer server(t, t.labels(), 3, query, 1, marked);
    EXPECT_EQ(scheme.Detect(original, server).ValueOrDie(), mark) << round;
  }
}

TEST(TypePreservingTest, IdenticalStructurePreservesEverything) {
  Rng rng(62);
  Structure g = RandomBoundedDegreeGraph(100, 3, 250, false, rng);
  auto query = AtomQuery::Adjacency("E");
  QueryIndex index(g, *query, AllParams(g, 1));
  LocalSchemeOptions opts;
  opts.key = {1, 2};
  auto scheme = LocalScheme::Plan(index, opts).ValueOrDie();

  UpdateCheck check = CheckTypePreservingUpdate(scheme, index);
  EXPECT_TRUE(check.type_preserving);
  EXPECT_EQ(check.old_types, check.new_types);
  EXPECT_EQ(check.surviving_pairs, scheme.CapacityBits());
  EXPECT_LE(check.new_cost_bound, scheme.Budget());
}

TEST(TypePreservingTest, TypePreservingEdit) {
  // A long symmetric cycle: rebuilding it rotated keeps the single
  // radius-1 type; pairs survive as active elements.
  Structure g = CycleGraph(40, true);
  auto query = AtomQuery::Adjacency("E");
  QueryIndex index(g, *query, AllParams(g, 1));
  LocalSchemeOptions opts;
  opts.key = {3, 4};
  auto scheme = LocalScheme::Plan(index, opts).ValueOrDie();

  Structure rotated(GraphSignature(), 40);
  for (ElemId i = 0; i < 40; ++i) {
    ElemId j = (i + 1) % 40;
    rotated.AddTuple(size_t{0}, Tuple{j, static_cast<ElemId>((j + 1) % 40)});
    rotated.AddTuple(size_t{0}, Tuple{static_cast<ElemId>((j + 1) % 40), j});
  }
  rotated.Seal();
  QueryIndex updated(rotated, *query, AllParams(rotated, 1));
  UpdateCheck check = CheckTypePreservingUpdate(scheme, updated);
  EXPECT_TRUE(check.type_preserving);
  EXPECT_EQ(check.surviving_pairs, scheme.CapacityBits());
}

TEST(TypePreservingTest, TypeCreatingEditDetected) {
  // Removing one edge from a cycle creates endpoint types.
  Structure g = CycleGraph(30, true);
  auto query = AtomQuery::Adjacency("E");
  QueryIndex index(g, *query, AllParams(g, 1));
  LocalSchemeOptions opts;
  opts.key = {5, 6};
  auto scheme = LocalScheme::Plan(index, opts).ValueOrDie();

  Structure path = PathGraph(30, true);
  QueryIndex updated(path, *query, AllParams(path, 1));
  UpdateCheck check = CheckTypePreservingUpdate(scheme, updated);
  EXPECT_FALSE(check.type_preserving);
  EXPECT_LT(check.old_types, check.new_types);
}

TEST(StructuralUpdateTest, WellFormedRejectsBadShape) {
  Structure g = CycleGraph(10, true);

  StructuralUpdate bad_relation;
  bad_relation.relation = 7;  // graph signature has a single relation
  bad_relation.tuple = Tuple{0, 1};
  EXPECT_EQ(CheckUpdateWellFormed(g, bad_relation).code(),
            StatusCode::kInvalidArgument);

  StructuralUpdate bad_arity;
  bad_arity.relation = 0;
  bad_arity.tuple = Tuple{0, 1, 2};  // E is binary
  EXPECT_EQ(CheckUpdateWellFormed(g, bad_arity).code(),
            StatusCode::kInvalidArgument);

  // SPSW-style fake tuple: references an element outside the universe.
  StructuralUpdate fake;
  fake.relation = 0;
  fake.tuple = Tuple{0, 99};
  EXPECT_EQ(CheckUpdateWellFormed(g, fake).code(), StatusCode::kOutOfRange);

  StructuralUpdate ok;
  ok.relation = 0;
  ok.tuple = Tuple{0, 5};
  EXPECT_TRUE(CheckUpdateWellFormed(g, ok).ok());
}

TEST(StructuralUpdateTest, ApplyRejectsDuplicateInsertAndMissingDelete) {
  Structure g = CycleGraph(10, true);

  StructuralUpdate dup;
  dup.kind = StructuralUpdate::Kind::kInsertTuple;
  dup.relation = 0;
  dup.tuple = Tuple{0, 1};  // already an edge of the cycle
  EXPECT_EQ(ApplyStructuralUpdates(g, {dup}).status().code(),
            StatusCode::kFailedPrecondition);

  StructuralUpdate missing;
  missing.kind = StructuralUpdate::Kind::kDeleteTuple;
  missing.relation = 0;
  missing.tuple = Tuple{0, 5};  // not an edge
  EXPECT_EQ(ApplyStructuralUpdates(g, {missing}).status().code(),
            StatusCode::kFailedPrecondition);

  // A batch is all-or-nothing: one bad update rejects the whole batch.
  StructuralUpdate good_delete;
  good_delete.kind = StructuralUpdate::Kind::kDeleteTuple;
  good_delete.relation = 0;
  good_delete.tuple = Tuple{0, 1};
  EXPECT_EQ(ApplyStructuralUpdates(g, {good_delete, missing}).status().code(),
            StatusCode::kFailedPrecondition);
  auto applied = ApplyStructuralUpdates(g, {good_delete});
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(applied.value().relation(0).size(), g.relation(0).size() - 1);
}

TEST(StructuralUpdateTest, ValidateFlagsTypeChangingEdits) {
  Structure g = CycleGraph(30, true);
  auto query = AtomQuery::Adjacency("E");
  QueryIndex index(g, *query, AllParams(g, 1));
  LocalSchemeOptions opts;
  opts.key = {9, 10};
  auto scheme = LocalScheme::Plan(index, opts).ValueOrDie();

  // Non-type-preserving insert: a chord gives two elements degree 3.
  StructuralUpdate chord_a{StructuralUpdate::Kind::kInsertTuple, 0, Tuple{0, 15}};
  StructuralUpdate chord_b{StructuralUpdate::Kind::kInsertTuple, 0, Tuple{15, 0}};
  auto chorded = ApplyStructuralUpdates(g, {chord_a, chord_b});
  ASSERT_TRUE(chorded.ok());
  EXPECT_EQ(ValidateTypePreserving(scheme, chorded.value()).code(),
            StatusCode::kFailedPrecondition);

  // Type-removing delete: cutting one edge pair turns the cycle into a path
  // (endpoint types appear, the interior 2-regular type survives).
  StructuralUpdate cut_a{StructuralUpdate::Kind::kDeleteTuple, 0, Tuple{0, 1}};
  StructuralUpdate cut_b{StructuralUpdate::Kind::kDeleteTuple, 0, Tuple{1, 0}};
  auto cut = ApplyStructuralUpdates(g, {cut_a, cut_b});
  ASSERT_TRUE(cut.ok());
  EXPECT_EQ(ValidateTypePreserving(scheme, cut.value()).code(),
            StatusCode::kFailedPrecondition);

  // Identity stays admissible.
  EXPECT_TRUE(ValidateTypePreserving(scheme, g).ok());
}

TEST(StructuralUpdateTest, ValidateRejectsUniverseMismatch) {
  Structure g = CycleGraph(30, true);
  auto query = AtomQuery::Adjacency("E");
  QueryIndex index(g, *query, AllParams(g, 1));
  LocalSchemeOptions opts;
  opts.key = {9, 10};
  auto scheme = LocalScheme::Plan(index, opts).ValueOrDie();

  // The gate reads the updated structure at the plan's domain tuples, so
  // the universe must be the planning instance's.
  EXPECT_EQ(ValidateTypePreserving(scheme, CycleGraph(31, true)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ValidateTypePreserving(scheme, CycleGraph(29, true)).code(),
            StatusCode::kInvalidArgument);
}

TEST(StructuralUpdateTest, ValidateRejectsSignatureMismatch) {
  Structure g = CycleGraph(30, true);
  auto query = AtomQuery::Adjacency("E");
  QueryIndex index(g, *query, AllParams(g, 1));
  LocalSchemeOptions opts;
  opts.key = {9, 10};
  auto scheme = LocalScheme::Plan(index, opts).ValueOrDie();

  // Same universe and edges, plus a unary relation the plan never saw.
  Signature extra_sig = GraphSignature();
  extra_sig.AddRelation("P", 1);
  Structure extra(extra_sig, 30);
  for (TupleRef t : g.relation(0).tuples()) extra.AddTuple(size_t{0}, t.ToTuple());
  extra.Seal();
  EXPECT_EQ(ValidateTypePreserving(scheme, extra).code(),
            StatusCode::kInvalidArgument);

  // Same shape, the binary relation renamed.
  Structure renamed(Signature({{"F", 2}}), 30);
  for (TupleRef t : g.relation(0).tuples()) renamed.AddTuple(size_t{0}, t.ToTuple());
  renamed.Seal();
  EXPECT_EQ(ValidateTypePreserving(scheme, renamed).code(),
            StatusCode::kInvalidArgument);
}

TEST(StructuralUpdateTest, ValidateTypesOnlyTheUpdatedStructure) {
  // The planning instance's types come from the scheme: one gate call makes
  // one cache probe per domain tuple of the updated structure, and none for
  // the planning instance.
  Structure g = CycleGraph(30, true);
  auto query = AtomQuery::Adjacency("E");
  QueryIndex index(g, *query, AllParams(g, 1));
  LocalSchemeOptions opts;
  opts.key = {9, 10};
  auto scheme = LocalScheme::Plan(index, opts).ValueOrDie();

  const CanonCache::Stats before = CanonCache::Global().stats();
  EXPECT_TRUE(ValidateTypePreserving(scheme, g).ok());
  const CanonCache::Stats after = CanonCache::Global().stats();
  EXPECT_EQ((after.hits + after.misses) - (before.hits + before.misses),
            index.domain().size());
}

TEST(TypePreservingTest, SurvivingPairsReportedHonestly) {
  // Shrink the structure so some pair elements go inactive.
  Structure g = CycleGraph(20, true);
  auto query = AtomQuery::Adjacency("E");
  QueryIndex index(g, *query, AllParams(g, 1));
  LocalSchemeOptions opts;
  opts.key = {7, 8};
  auto scheme = LocalScheme::Plan(index, opts).ValueOrDie();
  ASSERT_GT(scheme.CapacityBits(), 0u);

  // New structure: same universe, but only a short path keeps tuples.
  Structure sparse(GraphSignature(), 20);
  sparse.AddTuple(size_t{0}, Tuple{0, 1});
  sparse.AddTuple(size_t{0}, Tuple{1, 0});
  sparse.Seal();
  QueryIndex updated(sparse, *query, AllParams(sparse, 1));
  UpdateCheck check = CheckTypePreservingUpdate(scheme, updated);
  EXPECT_FALSE(check.type_preserving);
  EXPECT_LT(check.surviving_pairs, scheme.CapacityBits());
}

}  // namespace
}  // namespace qpwm
