// tree-detect: the tree scheme of Theorems 4/5 on a random Sigma-tree. A
// few cold plans, then rounds that embed a coded payload and detect it
// through the automaton-query server behind a tampering server that erases
// a few percent of the nodes. Keeps tree/ and TreeScheme measured.
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "qpwm/coding/coded_watermark.h"
#include "qpwm/coding/codec.h"
#include "qpwm/core/adversarial.h"
#include "qpwm/core/attack.h"
#include "qpwm/core/tree_scheme.h"
#include "qpwm/logic/parser.h"
#include "qpwm/tree/bintree.h"
#include "qpwm/tree/mso.h"
#include "qpwm/util/random.h"
#include "timed_server.h"

namespace qpwm_bench {
namespace {

using namespace qpwm;

constexpr size_t kN = 100000;
constexpr uint32_t kLabels = 3;
constexpr size_t kRedundancy = 3;
constexpr size_t kColdPlans = 3;
constexpr size_t kCopiesPerRound = 16;
/// Every this many rounds the scheme is replanned (outside the timed
/// sections) and must equal the first plan.
constexpr size_t kReplanEvery = 25;
constexpr double kEraseFrac = 0.03;

class TreeDetect : public Workload {
 public:
  size_t MinOps() const override { return 100; }

  void Setup(uint64_t seed, RunOutput&) override {
    seed_ = seed;
    Alphabet sigma;
    sigma.Intern("a");
    sigma.Intern("b");
    sigma.Intern("c");
    dta_.emplace(CompileMso(*MustParseFormula("LEQ(u, v) & P_b(v)"), sigma, {"u", "v"})
                     .ValueOrDie()
                     .dta);
    Rng rng(seed);
    tree_ = RandomBinaryTree(kN, kLabels, rng);
    weights_ = WeightMap(1, tree_.size());
    for (NodeId v = 0; v < tree_.size(); ++v) {
      weights_.SetElem(v, rng.Uniform(100, 999));
    }
    codec_ = MakeCodec("hamming").ValueOrDie();
    opts_ = TreeSchemeOptions{};
    opts_.key = {seed, seed * 3 + 1};
    opts_.encoding = PairEncoding::kAntipodal;
  }

  void Run(const Limit& limit, SpanRecorder* rec, RunOutput& out) override {
    std::optional<Result<TreeScheme>> planned;
    std::optional<std::string> first_plan;
    // Plans once and checks it against the first plan; `rec` is null for
    // the replans between rounds, which are not part of the timed loop.
    auto plan = [&](size_t p, SpanRecorder* span_rec) {
      const Stopwatch sw;
      std::optional<Result<TreeScheme>> result;
      {
        ScopedSpan root(span_rec, "tree.plan", p, -1);
        result.emplace(
            TreeScheme::Plan(tree_, tree_.labels(), kLabels, *dta_, 1, opts_));
      }
      out.samples["plan_s"].push_back(sw.Seconds());
      if (span_rec != nullptr) out.timed_s += sw.Seconds();
      ++out.attempted;
      if (!result->ok()) {
        out.Fail("tree plan failed: " + result->status().ToString());
        return result;
      }
      const TreeScheme& s = result->value();
      const std::string fingerprint =
          Canon(s.CapacityBits(), s.RegionsPaired(), s.RegionsUnpaired());
      if (!first_plan) first_plan = fingerprint;
      if (fingerprint != *first_plan) out.Fail("tree plan differs from the first plan");
      out.layer["tree.regions_paired"].push_back(static_cast<double>(s.RegionsPaired()));
      out.layer["tree.regions_unpaired"].push_back(
          static_cast<double>(s.RegionsUnpaired()));
      return result;
    };
    for (size_t p = 0; p < kColdPlans; ++p) {
      planned = plan(p, rec);
      if (!planned->ok()) return;
    }
    const TreeScheme& scheme = planned->value();
    AdversarialScheme adv(scheme, kRedundancy);
    CodedWatermark coded(adv, *codec_);
    if (coded.PayloadBits() == 0) {
      out.Fail("tree scheme has no payload capacity");
      return;
    }

    const Stopwatch since_start;
    for (size_t round = 0; limit.More(round, since_start); ++round) {
      const uint64_t round_seed = seed_ * 1000003 + round;
      Rng rng(round_seed);
      // Each round marks copies for several recipients back to back, as an
      // owner handing out copies does; the last one is the suspect.
      BitVec payload;
      std::optional<WeightMap> marked;
      double embed_s = 0;
      for (size_t copy = 0; copy < kCopiesPerRound; ++copy) {
        payload = BitVec(coded.PayloadBits());
        for (size_t b = 0; b < payload.size(); ++b) payload.Set(b, rng.Coin());
        marked.reset();
        const Stopwatch embed_sw;
        {
          ScopedSpan root(rec, "round", round, -1);
          ScopedSpan span(rec, "coded.embed");
          marked.emplace(coded.Embed(weights_, payload));
        }
        const double copy_s = embed_sw.Seconds();
        out.samples["embed_ms"].push_back(copy_s * 1e3);
        embed_s += copy_s;
      }

      // The suspect: an honest automaton server over the marked copy behind
      // a tampering server that drops ~3% of the nodes. Set-up, not timed.
      HonestTreeServer honest(tree_, tree_.labels(), kLabels, *dta_, 1,
                              std::move(*marked));
      std::unique_ptr<AnswerServer> inner_timed;
      const AnswerServer* inner = &honest;
      if (rec != nullptr) {
        inner_timed = WrapTimed(honest, rec, "tree.serve");
        inner = inner_timed.get();
      }
      TamperedAnswerServer tampered(*inner);
      for (NodeId v = 0; v < tree_.size(); ++v) {
        if (rng.Bernoulli(kEraseFrac)) tampered.Erase({v});
      }
      std::unique_ptr<AnswerServer> outer_timed;
      const AnswerServer* suspect = &tampered;
      if (rec != nullptr) {
        outer_timed = WrapTimed(tampered, rec, "answers.serve");
        suspect = outer_timed.get();
      }

      const Stopwatch detect_sw;
      std::optional<Result<CodedDetection>> detected;
      {
        ScopedSpan root(rec, "round", round, -1);
        ScopedSpan span(rec, "detect");
        detected.emplace(coded.Detect(weights_, *suspect));
      }
      const double detect_s = detect_sw.Seconds();
      out.samples["detect_ms"].push_back(detect_s * 1e3);
      out.timed_s += embed_s + detect_s;
      out.op_s.push_back(embed_s + detect_s);
      ++out.ops;

      ++out.attempted;
      if (!detected->ok()) {
        out.Fail("tree detect failed: " + detected->status().ToString());
        out.outputs.push_back("detect-error");
        continue;
      }
      const CodedDetection& d = detected->value();
      if (!(d.message.payload == payload)) {
        out.Fail("payload not recovered in round " + std::to_string(round));
      }
      out.layer["detect.pairs_erased_frac"].push_back(
          static_cast<double>(d.channel.pairs_erased) /
          static_cast<double>(scheme.CapacityBits()));
      out.layer["coding.corrected"].push_back(static_cast<double>(d.message.corrected));
      out.layer["coding.filled"].push_back(static_cast<double>(d.message.filled));
      out.outputs.push_back(Canon(static_cast<int>(d.verdict.kind),
                                  d.verdict.log10_fp_bound,
                                  d.message.payload.ToString(),
                                  d.channel.pairs_erased));
      if ((round + 1) % kReplanEvery == 0) plan(kColdPlans + round, nullptr);
    }
  }

 private:
  uint64_t seed_ = 0;
  std::optional<Dta> dta_;
  BinaryTree tree_;
  WeightMap weights_{1, 0};
  std::unique_ptr<MessageCodec> codec_;
  TreeSchemeOptions opts_;
};

}  // namespace

std::unique_ptr<Workload> MakeTreeDetect() { return std::make_unique<TreeDetect>(); }

}  // namespace qpwm_bench
