// detect-trace: the investigator's path. The scheme is planned once in
// set-up; each request observes one suspect through its answer server and
// traces it against the candidate pool. Answer serving, vote decoding,
// codec decoding and the trace scan do the work, with no planning and no
// writes.
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "qpwm/coding/coded_watermark.h"
#include "qpwm/coding/codec.h"
#include "qpwm/coding/fingerprint.h"
#include "qpwm/core/adversarial.h"
#include "qpwm/core/attack.h"
#include "qpwm/core/local_scheme.h"
#include "qpwm/logic/query.h"
#include "qpwm/structure/canon_cache.h"
#include "qpwm/structure/generators.h"
#include "qpwm/util/random.h"
#include "timed_server.h"

namespace qpwm_bench {
namespace {

using namespace qpwm;

constexpr size_t kN = 50000;
constexpr size_t kRedundancy = 3;
constexpr uint64_t kCandidates = 5000;
constexpr size_t kCoalition = 3;
/// Suspects built in set-up; the timed loop cycles through them. Kinds
/// rotate single leaker, averaging coalition, unrelated honest database.
/// One cycle over all of them is the unit of throughput.
constexpr size_t kSuspects = 12;
/// Times each single leaker's copy is embedded in the per-cycle check;
/// all must be equal.
constexpr size_t kEmbedRepeats = 8;

enum class SuspectKind { kSingle, kCoalition, kUnrelated };

struct Suspect {
  SuspectKind kind;
  std::vector<uint64_t> members;
  ComposedSuspect served;
};

class DetectTrace : public Workload {
 public:
  size_t MinOps() const override { return 100; }

  void Setup(uint64_t seed, RunOutput& out) override {
    suspects_.clear();
    fp_.reset();
    coded_.reset();
    adv_.reset();
    scheme_.reset();
    index_.reset();

    Rng rng(seed);
    g_ = RandomBoundedDegreeGraph(kN, 3, 3 * kN, false, rng);
    query_ = AtomQuery::Adjacency("E");
    weights_ = RandomWeights(g_, 1000, 9999, rng);
    opts_ = LocalSchemeOptions{};
    opts_.rho = 2;
    opts_.epsilon = 0.25;
    opts_.key = {seed, seed + 1};
    opts_.encoding = PairEncoding::kAntipodal;

    const Stopwatch plan_sw;
    index_ = std::make_unique<QueryIndex>(g_, *query_, AllParams(g_, 1));
    Result<LocalScheme> planned = LocalScheme::Plan(*index_, opts_);
    out.samples["plan_s"].push_back(plan_sw.Seconds());
    ++out.attempted;
    if (!planned.ok()) {
      out.Fail("set-up plan failed: " + planned.status().ToString());
      return;
    }
    scheme_ = std::make_unique<LocalScheme>(std::move(planned).value());
    plan_fingerprint_ = PlanFingerprint(*scheme_);
    adv_ = std::make_unique<AdversarialScheme>(*scheme_, kRedundancy);
    codec_ = MakeCodec("hamming").ValueOrDie();
    coded_ = std::make_unique<CodedWatermark>(*adv_, *codec_);
    TardosOptions topts;
    topts.design_c = 5;
    topts.seed = seed + 1000;
    fp_ = std::make_unique<FingerprintedWatermark>(*coded_, topts);

    auto averaging = MakeCollusionAttack("averaging").ValueOrDie();
    for (size_t i = 0; i < kSuspects; ++i) {
      Suspect s;
      s.kind = static_cast<SuspectKind>(i % 3);
      WeightMap leaked = weights_;
      if (s.kind == SuspectKind::kUnrelated) {
        Rng urng(seed + 17 + i);
        leaked.ForEach([&](const Tuple& t, Weight) {
          leaked.Set(t, urng.Uniform(1000, 9999));
        });
      } else {
        const size_t size = s.kind == SuspectKind::kSingle ? 1 : kCoalition;
        while (s.members.size() < size) {
          const uint64_t r = rng.Below(kCandidates);
          bool fresh = true;
          for (uint64_t m : s.members) fresh &= (m != r);
          if (fresh) s.members.push_back(r);
        }
        // Not sampled: embed_ms comes from the cycle checks, which are
        // spread over the whole run.
        std::vector<WeightMap> copies;
        for (uint64_t m : s.members) copies.push_back(fp_->EmbedFor(weights_, m));
        if (copies.size() == 1) {
          leaked = std::move(copies[0]);
        } else {
          std::vector<const WeightMap*> ptrs;
          for (const WeightMap& c : copies) ptrs.push_back(&c);
          Rng arng(seed + 31 + i);
          leaked = averaging->Forge(ptrs, arng).ValueOrDie();
        }
      }
      ComposedAttackSpec spec;
      spec.deletion_frac = 0.03;
      spec.insertion_frac = 0.02;
      spec.seed = seed * 1000003 + i;
      s.served = ApplyComposedAttack(*index_, scheme_->marking().pairs(),
                                     adv_->Redundancy(), leaked, spec);
      suspects_.push_back(std::move(s));
    }
  }

  void Run(const Limit& limit, SpanRecorder* rec, RunOutput& out) override {
    if (!fp_) return;
    const Stopwatch since_start;
    out.units_per_op = static_cast<double>(suspects_.size());
    double cycle_s = 0;
    for (size_t i = 0; limit.More(i, since_start); ++i) {
      const Suspect& s = suspects_[i % suspects_.size()];
      std::unique_ptr<AnswerServer> timed;
      const AnswerServer* server = s.served.server.get();
      if (rec != nullptr) {
        timed = WrapTimed(*server, rec, "answers.serve");
        server = timed.get();
      }
      std::optional<Result<FingerprintObservation>> obs;
      TraceResult trace;
      double detect_ms = 0;
      double trace_ms = 0;
      const Stopwatch sw;
      {
        ScopedSpan root(rec, "suspect", i, -1);
        {
          ScopedSpan span(rec, "detect");
          obs.emplace(fp_->Observe(weights_, *server));
        }
        detect_ms = sw.Ms();
        if (obs->ok()) {
          const Stopwatch trace_sw;
          ScopedSpan span(rec, "fingerprint.trace");
          trace = fp_->TraceMany(obs->value(), kCandidates);
          trace_ms = trace_sw.Ms();
        }
      }
      const double suspect_s = sw.Seconds();
      out.timed_s += suspect_s;
      cycle_s += suspect_s;
      ++out.ops;
      out.samples["detect_ms"].push_back(detect_ms);
      if ((i + 1) % suspects_.size() == 0) {
        out.op_s.push_back(cycle_s);
        cycle_s = 0;
        ReplanCheck(out);
      }

      ++out.attempted;
      if (!obs->ok()) {
        out.Fail("observe failed: " + obs->status().ToString());
        out.outputs.push_back("observe-error");
        continue;
      }
      out.samples["trace_ms"].push_back(trace_ms);
      const CodedDetection& ch = obs->value().channel;
      out.layer["detect.pairs_erased_frac"].push_back(
          static_cast<double>(ch.channel.pairs_erased) /
          static_cast<double>(scheme_->CapacityBits()));
      out.layer["coding.corrected"].push_back(static_cast<double>(ch.message.corrected));
      out.layer["coding.filled"].push_back(static_cast<double>(ch.message.filled));
      if (trace.candidates > 0) {
        out.layer["fingerprint.candidates"].push_back(
            static_cast<double>(trace.candidates));
        out.layer["fingerprint.pruned_frac"].push_back(
            static_cast<double>(trace.pruned) / static_cast<double>(trace.candidates));
      }

      bool innocent = false;
      bool member_traced = false;
      std::string canon = Canon(static_cast<int>(trace.kind), trace.threshold,
                                trace.pruned);
      for (const Accusation& a : trace.accused) {
        bool member = false;
        for (uint64_t m : s.members) member |= (m == a.recipient);
        innocent |= !member;
        member_traced |= member;
        canon += Canon(a.recipient, a.score, a.log10_fp);
      }
      if (innocent) out.Fail("innocent accused for suspect " + std::to_string(i));
      if (s.kind == SuspectKind::kSingle && !member_traced) {
        out.Fail("single leaker not traced for suspect " + std::to_string(i));
      }
      out.outputs.push_back(canon);
    }
  }

 private:
  /// After each cycle the investigator replans from the owner's inputs, as a
  /// detector must: the plan has to equal the set-up plan, and embedding
  /// has to be deterministic. Runs outside the timed sections.
  void ReplanCheck(RunOutput& out) {
    CanonCache::Global().Clear();
    const Stopwatch plan_sw;
    QueryIndex index(g_, *query_, AllParams(g_, 1));
    Result<LocalScheme> again = LocalScheme::Plan(index, opts_);
    out.samples["plan_s"].push_back(plan_sw.Seconds());
    ++out.attempted;
    if (!again.ok() || PlanFingerprint(again.value()) != plan_fingerprint_) {
      out.Fail("replanned scheme differs from the set-up plan");
    }
    for (const Suspect& s : suspects_) {
      if (s.kind != SuspectKind::kSingle) continue;
      // Several copies each, so that the first copy after the replan, which
      // finds cold caches, is well under a tenth of the samples.
      std::vector<WeightMap> copies(kEmbedRepeats, WeightMap(1, 0));
      for (WeightMap& copy : copies) {
        const Stopwatch embed_sw;
        copy = fp_->EmbedFor(weights_, s.members[0]);
        out.samples["embed_ms"].push_back(embed_sw.Ms());
      }
      ++out.attempted;
      for (const WeightMap& copy : copies) {
        if (!(copy == copies[0])) {
          out.Fail("embedding is not deterministic");
          break;
        }
      }
    }
  }

  Structure g_;
  std::unique_ptr<AtomQuery> query_;
  WeightMap weights_{1, 0};
  std::unique_ptr<QueryIndex> index_;
  std::unique_ptr<LocalScheme> scheme_;
  std::unique_ptr<AdversarialScheme> adv_;
  std::unique_ptr<MessageCodec> codec_;
  std::unique_ptr<CodedWatermark> coded_;
  std::unique_ptr<FingerprintedWatermark> fp_;
  std::vector<Suspect> suspects_;
  LocalSchemeOptions opts_;
  std::string plan_fingerprint_;
};

}  // namespace

std::unique_ptr<Workload> MakeDetectTrace() {
  return std::make_unique<DetectTrace>();
}

}  // namespace qpwm_bench
