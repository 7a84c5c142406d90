// stream-soak: a closed loop with one writer lane and one detect lane over
// the same serving layer. Each soak deploys a fresh plan and marked copy,
// then runs epochs in which the writer generates and ingests a window of
// updates while the detector ticks against the previous epoch's snapshot;
// the epoch ends with SealEpoch, whose Theorem 8 gate does most of the
// work. Each soak ends with a fault-free audit.
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "qpwm/coding/coded_watermark.h"
#include "qpwm/coding/codec.h"
#include "qpwm/core/adversarial.h"
#include "qpwm/core/local_scheme.h"
#include "qpwm/logic/query.h"
#include "qpwm/stream/detect_loop.h"
#include "qpwm/stream/report.h"
#include "qpwm/stream/stream_server.h"
#include "qpwm/stream/update.h"
#include "qpwm/structure/canon_cache.h"
#include "qpwm/structure/generators.h"
#include "qpwm/util/random.h"
#include "qpwm/util/status.h"

namespace qpwm_bench {
namespace {

using namespace qpwm;

constexpr size_t kN = 600;
constexpr size_t kRedundancy = 5;
constexpr size_t kWindow = 60;
constexpr size_t kEpochsPerSoak = 50;
/// The deployment's copy is embedded in this many batches of this many
/// copies; all copies must be equal.
constexpr size_t kEmbedBatches = 8;
constexpr size_t kCopiesPerBatch = 16;

bool IsStructural(UpdateKind kind) {
  return kind != UpdateKind::kWeightRefresh && kind != UpdateKind::kWeightWrite;
}

class StreamSoak : public Workload {
 public:
  /// Two soaks seal at least 100 epochs.
  size_t MinOps() const override { return 2; }
  /// Serial library calls: at n = 600 a parallel section is a few hundred
  /// microseconds, mostly thread wake-ups, whose cost on a shared host
  /// swung updates/s by a third between runs at 2 threads.
  size_t MaxThreads() const override { return 1; }

  void Setup(uint64_t seed, RunOutput&) override {
    seed_ = seed;
    Rng rng(seed);
    g_ = CycleGraph(kN, /*symmetric=*/true);
    weights_ = RandomWeights(g_, 1000, 9999, rng);
    domain_ = AllParams(g_, 1);
    codec_ = MakeCodec("hamming").ValueOrDie();
  }

  void Run(const Limit& limit, SpanRecorder* rec, RunOutput& out) override {
    const Stopwatch since_start;
    uint64_t epoch_id = 0;
    for (size_t soak = 0; limit.More(soak, since_start); ++soak) {
      CanonCache::Global().Clear();
      const uint64_t soak_seed = seed_ + 7919 * soak;
      LocalSchemeOptions opts;
      opts.epsilon = 0.34;
      opts.key = {soak_seed, 99};
      opts.encoding = PairEncoding::kAntipodal;

      // Deployment: index, plan and the marked copy.
      std::vector<Tuple> domain = domain_;
      std::unique_ptr<QueryIndex> index;
      std::optional<Result<LocalScheme>> planned;
      const Stopwatch plan_sw;
      {
        ScopedSpan root(rec, "deploy", soak, -1);
        {
          ScopedSpan span(rec, "answers.index_build");
          index = std::make_unique<QueryIndex>(g_, query_, std::move(domain));
        }
        ScopedSpan span(rec, "plan");
        planned.emplace(LocalScheme::Plan(*index, opts));
      }
      const double plan_s = plan_sw.Seconds();
      out.samples["plan_s"].push_back(plan_s);
      out.timed_s += plan_s;
      ++out.attempted;
      if (!planned->ok()) {
        out.Fail("soak plan failed: " + planned->status().ToString());
        out.outputs.push_back("plan-error");
        ++out.ops;
        continue;
      }
      const LocalScheme& scheme = planned->value();
      AdversarialScheme adv(scheme, kRedundancy);
      CodedWatermark coded(adv, *codec_);
      BitVec payload(coded.PayloadBits());
      Rng payload_rng(soak_seed + 1);
      for (size_t b = 0; b < payload.size(); ++b) payload.Set(b, payload_rng.Coin());
      // A copy takes a few microseconds, too little to time one at a time
      // on a shared host, so copies are timed in batches and each batch is
      // one sample of the time per copy.
      std::vector<WeightMap> copies;
      copies.reserve(kCopiesPerBatch);
      std::optional<WeightMap> deployed;
      bool deterministic = true;
      for (size_t batch = 0; batch < kEmbedBatches; ++batch) {
        copies.clear();
        const Stopwatch embed_sw;
        {
          ScopedSpan root(rec, "deploy", soak, -1);
          for (size_t k = 0; k < kCopiesPerBatch; ++k) {
            ScopedSpan span(rec, "coded.embed");
            copies.push_back(coded.Embed(weights_, payload));
          }
        }
        out.samples["embed_ms"].push_back(embed_sw.Ms() / kCopiesPerBatch);
        out.timed_s += embed_sw.Seconds();
        if (!deployed) deployed = copies[0];
        for (const WeightMap& copy : copies) deterministic &= (copy == *deployed);
      }
      ++out.attempted;
      if (!deterministic) out.Fail("embedding is not deterministic");
      WeightMap marked = std::move(*deployed);

      StreamServer server(scheme, weights_, std::move(marked));
      UpdateMixOptions mix;
      mix.hostile_frac = 0.15;
      mix.honest_structural_frac = 0.01;
      UpdateGenerator generator(soak_seed + 2, mix);
      // The detector's injected faults (epoch loss 12%, failed batch 8%) end
      // an attempt with probability ~0.19, so with the library's default of
      // 4 attempts about 1 pass in 770 gives up by design — several times a
      // run at this epoch rate. The soak requires gave_up == 0, so passes
      // get 8 attempts (~2e-6 give-ups per pass); retries are still counted.
      DetectLoopOptions detect_opts;
      detect_opts.max_attempts = 8;
      EpochDetector detector(coded, payload, soak_seed + 3, detect_opts);

      std::shared_ptr<const StreamSnapshot> snap = server.snapshot();
      for (size_t e = 0; e < kEpochsPerSoak; ++e, ++epoch_id) {
        const Stopwatch epoch_sw;
        double tick_ms = 0;
        double seal_ms = 0;
        {
          ScopedSpan root(rec, "epoch", epoch_id, -1);
          const int32_t parent = root.id();
          // The writer lane owns the server and generator and runs here; the
          // detect lane reads the previous epoch's frozen snapshot on a
          // thread of its own, concurrently.
          std::thread detect_lane([&] {
            const Stopwatch tick_sw;
            ScopedSpan span(rec, "stream.tick", epoch_id, parent);
            detector.Tick(*snap);
            tick_ms = tick_sw.Ms();
          });
          for (size_t j = 0; j < kWindow; ++j) {
            Update u = [&] {
              ScopedSpan span(rec, "stream.generate", epoch_id, parent);
              return generator.Next(server.structure());
            }();
            ScopedSpan span(rec, "stream.ingest", epoch_id, parent);
            server.Ingest(u);
          }
          detect_lane.join();
          const Stopwatch seal_sw;
          ScopedSpan span(rec, "stream.seal");
          snap = server.SealEpoch();
          seal_ms = seal_sw.Ms();
        }
        const double epoch_s = epoch_sw.Seconds();
        out.timed_s += epoch_s;
        out.units_per_op = static_cast<double>(kWindow);
        out.op_s.push_back(epoch_s);
        out.samples["detect_ms"].push_back(tick_ms);
        out.samples["seal_ms"].push_back(seal_ms);
      }
      ++out.ops;

      // Checks, outside the timed sections.
      out.attempted += 3;
      server.Freeze();
      const DetectOutcome audit = detector.Audit(*snap);
      const StreamReport report = BuildStreamReport(generator, server, detector, audit);
      const StreamCounters& c = report.counters;
      if (!report.Accounted()) out.Fail("accounting invariant broken");
      if (report.gave_up != 0) out.Fail("detect passes gave up");
      if (audit.verdict != VerdictKind::kMatch || !audit.payload_correct) {
        out.Fail("final audit is not a correct MATCH");
      }
      uint64_t structural_submitted = 0;
      uint64_t structural_applied = 0;
      for (size_t k = 0; k < kNumUpdateKinds; ++k) {
        if (!IsStructural(static_cast<UpdateKind>(k))) continue;
        structural_submitted += c.submitted_by_kind[k];
        structural_applied += c.applied_by_kind[k];
      }
      const CanonCache::Stats cs = CanonCache::Global().stats();
      out.layer["structure.canon_bytes"].push_back(static_cast<double>(cs.bytes_resident));
      out.layer["structure.canon_hit_rate"].push_back(cs.HitRate());
      out.layer["structure.canon_distinct_forms"].push_back(
          static_cast<double>(cs.distinct_forms));
      out.layer["plan.ntp"].push_back(static_cast<double>(scheme.NumTypes()));
      out.layer["plan.candidate_pairs"].push_back(
          static_cast<double>(scheme.CandidatePairs()));
      out.layer["plan.pairs"].push_back(static_cast<double>(scheme.CapacityBits()));
      out.layer["plan.tries"].push_back(static_cast<double>(scheme.TriesUsed()));
      out.layer["stream.fallback_epochs"].push_back(static_cast<double>(c.fallback_epochs));
      out.layer["stream.applied"].push_back(static_cast<double>(c.applied));
      for (size_t code = 1; code < kNumStatusCodes; ++code) {
        out.layer[std::string("stream.rejected_by_code.") +
                  StatusCodeName(static_cast<StatusCode>(code))]
            .push_back(static_cast<double>(c.rejected_by_code[code]));
      }
      out.layer["stream.admit_frac"].push_back(
          structural_submitted == 0
              ? 0
              : static_cast<double>(structural_applied) /
                    static_cast<double>(structural_submitted));
      out.layer["stream.retried"].push_back(static_cast<double>(report.retried));
      out.layer["stream.gave_up"].push_back(static_cast<double>(report.gave_up));
      out.outputs.push_back(StreamReportToJson(report));
    }
  }

 private:
  uint64_t seed_ = 0;
  Structure g_;
  DistanceQuery query_{1};
  WeightMap weights_{1, 0};
  std::vector<Tuple> domain_;
  std::unique_ptr<MessageCodec> codec_;
};

}  // namespace

std::unique_ptr<Workload> MakeStreamSoak() { return std::make_unique<StreamSoak>(); }

}  // namespace qpwm_bench
