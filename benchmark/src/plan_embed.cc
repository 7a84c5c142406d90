// plan-embed: the owner's path. Each round starts from a cleared canon
// cache, builds the QueryIndex, plans the local scheme and embeds marked
// copies for a batch of recipients. Structure typing, the canon cache, the
// index build and pair costing do the work here.
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
#include "qpwm/core/local_scheme.h"
#include "qpwm/logic/query.h"
#include "qpwm/structure/canon_cache.h"
#include "qpwm/structure/generators.h"
#include "qpwm/util/hash.h"
#include "qpwm/util/random.h"

namespace qpwm_bench {
namespace {

using namespace qpwm;

constexpr size_t kN = 100000;
constexpr size_t kDegree = 3;
constexpr size_t kRedundancy = 3;
constexpr size_t kCopiesPerRound = 25;
/// Every 7th copy, from a start that rotates by round, is read back: 4 a round.
constexpr size_t kReadbackStride = 7;

class PlanEmbed : public Workload {
 public:
  size_t MinOps() const override { return 4; }

  void Setup(uint64_t seed, RunOutput&) override {
    seed_ = seed;
    Rng rng(seed);
    g_ = RandomBoundedDegreeGraph(kN, kDegree, 3 * kN, false, rng);
    query_ = AtomQuery::Adjacency("E");
    weights_ = RandomWeights(g_, 1000, 9999, rng);
    domain_ = AllParams(g_, 1);
    codec_ = MakeCodec("hamming").ValueOrDie();
    opts_ = LocalSchemeOptions{};
    opts_.rho = 2;
    opts_.epsilon = 0.25;
    opts_.key = {seed, seed + 1};
    opts_.encoding = PairEncoding::kAntipodal;
  }

  void Run(const Limit& limit, SpanRecorder* rec, RunOutput& out) override {
    std::optional<std::string> first_plan;
    const Stopwatch since_start;
    for (size_t round = 0; limit.More(round, since_start); ++round) {
      CanonCache::Global().Clear();
      std::vector<Tuple> domain = domain_;
      std::unique_ptr<QueryIndex> index;
      std::optional<Result<LocalScheme>> planned;
      std::vector<WeightMap> readbacks;
      std::vector<uint64_t> readback_ids;
      TardosOptions topts;
      topts.design_c = 5;
      topts.seed = seed_ + 1000;

      const Stopwatch round_sw;
      double plan_s = 0;
      {
        ScopedSpan root(rec, "round", round, -1);
        const Stopwatch plan_sw;
        {
          ScopedSpan span(rec, "answers.index_build");
          index = std::make_unique<QueryIndex>(g_, *query_, std::move(domain));
        }
        {
          ScopedSpan span(rec, "plan");
          planned.emplace(LocalScheme::Plan(*index, opts_));
        }
        plan_s = plan_sw.Seconds();
        if (planned->ok()) {
          const LocalScheme& scheme = planned->value();
          AdversarialScheme adv(scheme, kRedundancy);
          CodedWatermark wm(adv, *codec_);
          FingerprintedWatermark fp(wm, topts);
          for (size_t j = 0; j < kCopiesPerRound; ++j) {
            const uint64_t recipient = round * kCopiesPerRound + j;
            const Stopwatch embed_sw;
            WeightMap copy = [&] {
              ScopedSpan span(rec, "fingerprint.embed");
              return fp.EmbedFor(weights_, recipient);
            }();
            out.samples["embed_ms"].push_back(embed_sw.Ms());
            const size_t offset =
                (j + kCopiesPerRound - round % kCopiesPerRound) % kCopiesPerRound;
            if (offset % kReadbackStride == 0) {
              readbacks.push_back(std::move(copy));
              readback_ids.push_back(recipient);
            }
          }
        }
      }
      const double round_s = round_sw.Seconds();
      out.timed_s += round_s;
      out.units_per_op = static_cast<double>(kCopiesPerRound);
      out.op_s.push_back(round_s);
      ++out.ops;
      out.samples["plan_s"].push_back(plan_s);

      // Checks, outside the timed section.
      out.attempted += 1 + kCopiesPerRound;
      if (!planned->ok()) {
        out.Fail("plan failed: " + planned->status().ToString());
        out.outputs.push_back("plan-error");
        continue;
      }
      const LocalScheme& scheme = planned->value();
      const std::string fingerprint = PlanFingerprint(scheme);
      if (!first_plan) first_plan = fingerprint;
      if (fingerprint != *first_plan) out.Fail("plan differs from the run's first plan");
      const CanonCache::Stats cs = CanonCache::Global().stats();
      out.layer["structure.canon_hit_rate"].push_back(cs.HitRate());
      out.layer["structure.canon_distinct_forms"].push_back(
          static_cast<double>(cs.distinct_forms));
      out.layer["structure.canon_bytes"].push_back(
          static_cast<double>(cs.bytes_resident));
      out.layer["plan.ntp"].push_back(static_cast<double>(scheme.NumTypes()));
      out.layer["plan.candidate_pairs"].push_back(
          static_cast<double>(scheme.CandidatePairs()));
      out.layer["plan.pairs"].push_back(static_cast<double>(scheme.CapacityBits()));
      out.layer["plan.pair_yield"].push_back(
          scheme.CandidatePairs() == 0
              ? 0
              : static_cast<double>(scheme.CapacityBits()) /
                    static_cast<double>(scheme.CandidatePairs()));
      out.layer["plan.tries"].push_back(static_cast<double>(scheme.TriesUsed()));

      AdversarialScheme adv(scheme, kRedundancy);
      CodedWatermark wm(adv, *codec_);
      FingerprintedWatermark fp(wm, topts);
      std::string canon = fingerprint;
      for (size_t k = 0; k < readbacks.size(); ++k) {
        HonestServer server(*index, std::move(readbacks[k]));
        const Stopwatch detect_sw;
        Result<FingerprintObservation> obs = fp.Observe(weights_, server);
        out.samples["detect_ms"].push_back(detect_sw.Ms());
        if (!obs.ok()) {
          out.Fail("readback observe failed: " + obs.status().ToString());
          continue;
        }
        const BitVec& read = obs.value().channel.message.payload;
        if (!(read == fp.CodewordOf(readback_ids[k]))) {
          out.Fail("copy " + std::to_string(readback_ids[k]) +
                   " does not read back its codeword");
        }
        canon += Canon(readback_ids[k], read.ToString());
      }
      out.outputs.push_back(canon);
    }
  }

 private:
  uint64_t seed_ = 0;
  Structure g_;
  std::unique_ptr<AtomQuery> query_;
  WeightMap weights_{1, 0};
  std::vector<Tuple> domain_;
  std::unique_ptr<MessageCodec> codec_;
  LocalSchemeOptions opts_;
};

}  // namespace

std::string PlanFingerprint(const LocalScheme& s) {
  uint64_t h = 0;
  for (const WeightPair& p : s.marking().pairs()) {
    h = HashCombine(h, (static_cast<uint64_t>(p.plus) << 32) | p.minus);
  }
  return Canon(s.CapacityBits(), s.NumTypes(), s.CandidatePairs(),
               s.TriesUsed(), s.rho(), s.DistortionBound(), h);
}

std::unique_ptr<Workload> MakePlanEmbed() { return std::make_unique<PlanEmbed>(); }

}  // namespace qpwm_bench
