#include <gtest/gtest.h>

#include <string>

#include "qpwm/coding/coded_watermark.h"
#include "qpwm/core/adversarial.h"
#include "qpwm/core/local_scheme.h"
#include "qpwm/logic/query.h"
#include "qpwm/stream/detect_loop.h"
#include "qpwm/stream/report.h"
#include "qpwm/stream/stream_server.h"
#include "qpwm/stream/update.h"
#include "qpwm/structure/generators.h"
#include "qpwm/util/parallel.h"
#include "qpwm/util/random.h"

namespace qpwm {
namespace {

// --- Query binding -----------------------------------------------------------
//
// Regression coverage for the stale-answer bug the stream soak exposed: query
// state kept per structure address answered from a structure's old state
// after it mutated in place (or after a new structure reused a dead one's
// address). A query is now bound to the structure it reads: the one-shot
// Evaluate binds per call, and each QueryIndex binds once.

TEST(QueryBindingTest, DistanceQuerySeesInPlaceMutation) {
  Structure g = CycleGraph(8, true);
  DistanceQuery query(1);
  EXPECT_EQ(query.Evaluate(g, Tuple{0}).size(), 3u);  // {7, 0, 1}

  // In-place mutation at the same address: add the chord 0-4.
  g.AddTuple(size_t{0}, Tuple{0, 4});
  g.AddTuple(size_t{0}, Tuple{4, 0});
  g.Seal();
  // A stale pointer-keyed Gaifman cache would still answer 3 here.
  EXPECT_EQ(query.Evaluate(g, Tuple{0}).size(), 4u);  // {7, 0, 1, 4}
}

TEST(QueryBindingTest, AtomQuerySeesInPlaceMutation) {
  Structure g = CycleGraph(8, true);
  auto query = AtomQuery::Adjacency("E");
  EXPECT_EQ(query->Evaluate(g, Tuple{0}).size(), 2u);

  g.AddTuple(size_t{0}, Tuple{0, 4});
  g.Seal();
  EXPECT_EQ(query->Evaluate(g, Tuple{0}).size(), 3u);
}

TEST(QueryBindingTest, QueryIndexRebuiltInPlaceSeesEdit) {
  Structure g = CycleGraph(8, true);
  auto query = AtomQuery::Adjacency("E");
  // The even elements form the domain; the odd ones are served out of it.
  std::vector<Tuple> evens;
  for (ElemId e = 0; e < 8; e += 2) evens.push_back(Tuple{e});
  const QueryIndex before(g, *query, evens);
  ASSERT_EQ(before.ResultFor(0).size(), 2u);  // W_0 = {1, 7}

  // In-place edit, so the second index is built at the same address.
  g.AddTuple(size_t{0}, Tuple{0, 4});
  g.AddTuple(size_t{0}, Tuple{1, 5});
  g.Seal();
  const QueryIndex after(g, *query, evens);
  ASSERT_EQ(&after.structure(), &before.structure());
  EXPECT_EQ(after.ResultFor(0).size(), 3u);   // {1, 4, 7}
  EXPECT_EQ(before.ResultFor(0).size(), 2u);  // the first index keeps its rows

  // Out-of-domain parameters are answered through the index's own binding.
  WeightMap w(1, g.universe_size());
  for (ElemId e = 0; e < 8; ++e) w.SetElem(e, 10 + e);
  const HonestServer server(after, w);
  for (ElemId e = 1; e < 8; e += 2) {
    ASSERT_FALSE(after.FindParam(Tuple{e}).ok());
    const std::vector<Tuple> expected = after.bound()(Tuple{e});
    EXPECT_EQ(expected, query->Evaluate(g, Tuple{e}));
    const AnswerSet answers = server.Answer(Tuple{e});
    ASSERT_EQ(answers.size(), expected.size()) << "param " << e;
    for (size_t i = 0; i < answers.size(); ++i) {
      EXPECT_EQ(answers[i].element, expected[i]);
      EXPECT_EQ(answers[i].weight, w.Get(expected[i]));
    }
  }
  EXPECT_EQ(server.Answer(Tuple{1}).size(), 3u);  // {0, 2, 5}: sees the 1-5 chord
}

// --- Update generator --------------------------------------------------------

TEST(UpdateGeneratorTest, SameSeedReplaysTheSameStream) {
  Structure g = CycleGraph(40, true);
  UpdateGenerator a(7), b(7);
  for (int i = 0; i < 200; ++i) {
    const Update ua = a.Next(g);
    const Update ub = b.Next(g);
    EXPECT_EQ(ua.kind, ub.kind);
    EXPECT_EQ(ua.elem, ub.elem);
    EXPECT_EQ(ua.delta, ub.delta);
    ASSERT_EQ(ua.edits.size(), ub.edits.size());
    for (size_t j = 0; j < ua.edits.size(); ++j) {
      EXPECT_EQ(ua.edits[j].kind, ub.edits[j].kind);
      EXPECT_EQ(ua.edits[j].relation, ub.edits[j].relation);
      EXPECT_EQ(ua.edits[j].tuple, ub.edits[j].tuple);
    }
  }
  EXPECT_EQ(a.generated(), 200u);
  EXPECT_EQ(a.hostile_generated(), b.hostile_generated());
}

TEST(UpdateGeneratorTest, HostileFractionRoughlyHonored) {
  Structure g = CycleGraph(40, true);
  UpdateMixOptions mix;
  mix.hostile_frac = 0.25;
  UpdateGenerator gen(11, mix);
  for (int i = 0; i < 2000; ++i) (void)gen.Next(g);
  const double frac =
      static_cast<double>(gen.hostile_generated()) / static_cast<double>(gen.generated());
  EXPECT_NEAR(frac, 0.25, 0.05);
}

// --- Stream server admission -------------------------------------------------

struct StreamFixture {
  Structure g;
  std::unique_ptr<AtomQuery> query;
  std::optional<QueryIndex> index;
  std::optional<WeightMap> weights;
  std::optional<LocalScheme> scheme;

  explicit StreamFixture(size_t n = 24) {
    Rng rng(5);
    g = CycleGraph(n, true);
    query = AtomQuery::Adjacency("E");
    index.emplace(g, *query, AllParams(g, 1));
    weights.emplace(RandomWeights(g, 1000, 9999, rng));
    LocalSchemeOptions opts;
    opts.epsilon = 0.4;
    opts.key = {5, 6};
    scheme.emplace(LocalScheme::Plan(*index, opts).ValueOrDie());
  }

  StreamServer MakeServer() const {
    return StreamServer(*scheme, *weights, *weights);
  }
};

Update WeightRefreshUpdate(ElemId e, Weight delta) {
  Update u;
  u.kind = UpdateKind::kWeightRefresh;
  u.elem = e;
  u.delta = delta;
  return u;
}

Update StructuralUpdateOf(UpdateKind kind, std::vector<StructuralUpdate> edits) {
  Update u;
  u.kind = kind;
  u.edits = std::move(edits);
  return u;
}

TEST(StreamServerTest, SubmitStatusTaxonomy) {
  StreamFixture fx;
  StreamServer server = fx.MakeServer();

  // Weight refresh: applied immediately, moves original and served copy.
  const Weight before = server.original().GetElem(0);
  EXPECT_TRUE(server.Submit(WeightRefreshUpdate(0, +3)).ok());
  EXPECT_EQ(server.original().GetElem(0), before + 3);
  EXPECT_EQ(server.marked().GetElem(0), before + 3);

  // Malformed shape: wrong arity -> kInvalidArgument at submission.
  EXPECT_EQ(server
                .Submit(StructuralUpdateOf(
                    UpdateKind::kMalformed,
                    {{StructuralUpdate::Kind::kInsertTuple, 0, Tuple{0}}}))
                .code(),
            StatusCode::kInvalidArgument);

  // SPSW fake tuple referencing a non-existent row -> kOutOfRange.
  EXPECT_EQ(server
                .Submit(StructuralUpdateOf(
                    UpdateKind::kFakeTuple,
                    {{StructuralUpdate::Kind::kInsertTuple, 0, Tuple{0, 999}}}))
                .code(),
            StatusCode::kOutOfRange);

  // Shape-valid structural updates stage until the seal.
  EXPECT_TRUE(server
                  .Submit(StructuralUpdateOf(
                      UpdateKind::kFakeTuple,
                      {{StructuralUpdate::Kind::kInsertTuple, 0, Tuple{0, 5}}}))
                  .ok());
  EXPECT_EQ(server.staged(), 1u);

  // Frozen server: everything is rejected with kFailedPrecondition.
  server.Freeze();
  EXPECT_EQ(server.Submit(WeightRefreshUpdate(1, 1)).code(),
            StatusCode::kFailedPrecondition);

  const StreamCounters& c = server.counters();
  EXPECT_EQ(c.submitted, 5u);
  EXPECT_EQ(c.rejected_by_code[static_cast<size_t>(StatusCode::kInvalidArgument)], 1u);
  EXPECT_EQ(c.rejected_by_code[static_cast<size_t>(StatusCode::kOutOfRange)], 1u);
  EXPECT_EQ(c.rejected_by_code[static_cast<size_t>(StatusCode::kFailedPrecondition)], 1u);
}

TEST(StreamServerTest, SealQuarantinesTypeBreakingAndAdmitsTypePreserving) {
  StreamFixture fx;
  StreamServer server = fx.MakeServer();
  const size_t edges_before = server.structure().relation(size_t{0}).size();

  // A chord makes two elements degree 3: shape-valid, staged, but the
  // Theorem 8 gate must quarantine it at the seal.
  EXPECT_TRUE(server
                  .Submit(StructuralUpdateOf(
                      UpdateKind::kFakeTuple,
                      {{StructuralUpdate::Kind::kInsertTuple, 0, Tuple{0, 12}},
                       {StructuralUpdate::Kind::kInsertTuple, 0, Tuple{12, 0}}}))
                  .ok());
  // An edge 2-swap keeps every element 2-regular: admitted.
  EXPECT_TRUE(
      server
          .Submit(StructuralUpdateOf(
              UpdateKind::kEdgeSwap,
              {{StructuralUpdate::Kind::kDeleteTuple, 0, Tuple{0, 1}},
               {StructuralUpdate::Kind::kDeleteTuple, 0, Tuple{1, 0}},
               {StructuralUpdate::Kind::kDeleteTuple, 0, Tuple{4, 5}},
               {StructuralUpdate::Kind::kDeleteTuple, 0, Tuple{5, 4}},
               {StructuralUpdate::Kind::kInsertTuple, 0, Tuple{0, 4}},
               {StructuralUpdate::Kind::kInsertTuple, 0, Tuple{4, 0}},
               {StructuralUpdate::Kind::kInsertTuple, 0, Tuple{1, 5}},
               {StructuralUpdate::Kind::kInsertTuple, 0, Tuple{5, 1}}}))
          .ok());

  auto snap = server.SealEpoch();
  const StreamCounters& c = server.counters();
  EXPECT_EQ(c.applied_by_kind[static_cast<size_t>(UpdateKind::kEdgeSwap)], 1u);
  EXPECT_EQ(c.rejected_by_kind[static_cast<size_t>(UpdateKind::kFakeTuple)], 1u);
  EXPECT_EQ(c.rejected_by_code[static_cast<size_t>(StatusCode::kFailedPrecondition)], 1u);
  EXPECT_EQ(c.fallback_epochs, 1u);  // mixed batch forced per-update admission
  // The admitted swap kept the edge count; the chord never landed.
  EXPECT_EQ(snap->structure->relation(size_t{0}).size(), edges_before);
  EXPECT_TRUE(snap->structure->relation(size_t{0}).Contains(Tuple{0, 4}));
  EXPECT_FALSE(snap->structure->relation(size_t{0}).Contains(Tuple{0, 12}));
  EXPECT_EQ(c.submitted, c.applied + c.rejected);
}

TEST(StreamServerTest, SnapshotsAreEpochStampedAndRetired) {
  StreamFixture fx;
  StreamServer server = fx.MakeServer();

  auto snap0 = server.snapshot();
  EXPECT_EQ(snap0->epoch, 0u);
  EXPECT_FALSE(snap0->retired());

  EXPECT_TRUE(server.Submit(WeightRefreshUpdate(0, 1)).ok());
  auto snap1 = server.SealEpoch();
  EXPECT_EQ(snap1->epoch, 1u);
  EXPECT_TRUE(snap0->retired());   // superseded
  EXPECT_FALSE(snap1->retired());
  EXPECT_EQ(server.snapshot().get(), snap1.get());

  // A weight-only epoch shares the structure and index with its predecessor.
  EXPECT_EQ(snap0->structure.get(), snap1->structure.get());
  EXPECT_EQ(snap0->index.get(), snap1->index.get());
}

// --- Detect loop -------------------------------------------------------------

struct CodedFixture {
  StreamFixture fx;
  std::optional<AdversarialScheme> adv;
  std::unique_ptr<MessageCodec> codec;
  std::optional<CodedWatermark> coded;
  BitVec payload;

  // Large enough that a clean detection's vote mass pushes the Hoeffding
  // false-positive bound under the MATCH threshold (tiny instances top out
  // at NOMARK no matter how intact the mark is).
  CodedFixture() : fx(160) {
    adv.emplace(*fx.scheme, 3);
    codec = MakeCodec("hamming").ValueOrDie();
    coded.emplace(*adv, *codec);
    payload = BitVec(coded->PayloadBits());
    Rng rng(13);
    for (size_t i = 0; i < payload.size(); ++i) payload.Set(i, rng.Coin());
  }
};

TEST(DetectLoopTest, QuietStreamAuditsToMatch) {
  CodedFixture cf;
  ASSERT_GT(cf.coded->PayloadBits(), 0u);
  WeightMap marked = cf.coded->Embed(*cf.fx.weights, cf.payload);
  StreamServer server(*cf.fx.scheme, *cf.fx.weights, std::move(marked));
  EpochDetector detector(*cf.coded, cf.payload, /*seed=*/3);

  const DetectOutcome audit = detector.Audit(*server.snapshot());
  EXPECT_EQ(audit.verdict, VerdictKind::kMatch);
  EXPECT_TRUE(audit.payload_correct);
  EXPECT_EQ(audit.pairs_erased, 0u);
  EXPECT_GT(audit.ticks, 0u);
}

TEST(DetectLoopTest, TickRetriesFaultsAndEventuallyCompletes) {
  CodedFixture cf;
  WeightMap marked = cf.coded->Embed(*cf.fx.weights, cf.payload);
  StreamServer server(*cf.fx.scheme, *cf.fx.weights, std::move(marked));

  // Make faults frequent so the bounded-backoff retry path actually runs.
  DetectLoopOptions options;
  options.faults.epoch_loss_prob = 0.5;
  options.faults.failed_batch_prob = 0.2;
  EpochDetector detector(*cf.coded, cf.payload, /*seed=*/17, options);

  auto snap = server.snapshot();
  size_t completed = 0;
  for (int tick = 0; tick < 200 && completed < 3; ++tick) {
    if (auto outcome = detector.Tick(*snap)) {
      if (!outcome->gave_up) {
        ++completed;
        EXPECT_EQ(outcome->verdict, VerdictKind::kMatch);
        EXPECT_TRUE(outcome->payload_correct);
      }
    }
  }
  EXPECT_EQ(completed, 3u);
  EXPECT_GT(detector.retried(), 0u);  // the fault mix forced at least one retry
  EXPECT_EQ(detector.outcomes().size(),
            completed + detector.gave_up());
}

// --- Mini-soak: the full loop, byte-identical across thread counts -----------

std::string RunMiniSoak(size_t threads) {
  SetParallelThreads(threads);

  Rng rng(21);
  Structure g = CycleGraph(80, true);
  DistanceQuery query(1);
  QueryIndex index(g, query, AllParams(g, 1));
  WeightMap weights = RandomWeights(g, 1000, 9999, rng);

  LocalSchemeOptions opts;
  opts.epsilon = 0.34;
  opts.key = {21, 99};
  opts.encoding = PairEncoding::kAntipodal;
  LocalScheme scheme = LocalScheme::Plan(index, opts).ValueOrDie();
  AdversarialScheme adv(scheme, 3);
  std::unique_ptr<MessageCodec> codec = MakeCodec("hamming").ValueOrDie();
  CodedWatermark coded(adv, *codec);

  BitVec payload(coded.PayloadBits());
  Rng payload_rng(22);
  for (size_t i = 0; i < payload.size(); ++i) payload.Set(i, payload_rng.Coin());
  WeightMap marked = coded.Embed(weights, payload);

  StreamServer server(scheme, weights, std::move(marked));
  UpdateMixOptions mix;
  mix.hostile_frac = 0.2;
  UpdateGenerator generator(23, mix);
  EpochDetector detector(coded, payload, 24);

  const size_t kUpdates = 400, kWindow = 50;
  std::shared_ptr<const StreamSnapshot> snap = server.snapshot();
  for (size_t w = 0; w < kUpdates / kWindow; ++w) {
    ParallelMap<int>(2, [&](size_t lane) {
      if (lane == 0) {
        for (size_t j = 0; j < kWindow; ++j) {
          server.Ingest(generator.Next(server.structure()));
        }
      } else {
        detector.Tick(*snap);
      }
      return 0;
    });
    snap = server.SealEpoch();
  }
  server.Freeze();
  const DetectOutcome audit = detector.Audit(*snap);
  const StreamReport report = BuildStreamReport(generator, server, detector, audit);
  EXPECT_TRUE(report.Accounted());
  return StreamReportToJson(report);
}

TEST(StreamSoakTest, ReportByteIdenticalAcrossThreadCounts) {
  const std::string serial = RunMiniSoak(1);
  const std::string parallel = RunMiniSoak(4);
  EXPECT_EQ(serial, parallel);
  SetParallelThreads(0);  // restore the env/hardware default for later tests
}

}  // namespace
}  // namespace qpwm
