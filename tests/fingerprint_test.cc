// Accusation-soundness tests for the Tardos fingerprinting layer: code
// determinism, honest single-copy tracing against plain CodedWatermark
// detection, zero innocent accusations across a seed grid of honest and
// colluded runs, graceful degradation past the design coalition size,
// thread-count invariance of TraceMany (wired into the TSan CI job), and the
// lane-kernel oracle: TraceMany against a one-candidate-at-a-time scalar
// scan, for the dispatched kernel and the baseline build.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include "qpwm/coding/coded_watermark.h"
#include "qpwm/coding/codec.h"
#include "qpwm/coding/fingerprint.h"
#include "qpwm/coding/trace_lanes.h"
#include "qpwm/core/adversarial.h"
#include "qpwm/core/attack.h"
#include "qpwm/core/local_scheme.h"
#include "qpwm/logic/query.h"
#include "qpwm/structure/generators.h"
#include "qpwm/util/parallel.h"
#include "qpwm/util/random.h"

namespace qpwm {
namespace {

struct Fixture {
  Structure g;
  std::unique_ptr<AtomQuery> query;
  std::unique_ptr<QueryIndex> index;
  WeightMap weights;
  std::unique_ptr<LocalScheme> scheme;

  explicit Fixture(size_t n, uint64_t seed) : weights(1, 0) {
    Rng rng(seed);
    g = RandomBoundedDegreeGraph(n, 3, 3 * n, false, rng);
    query = AtomQuery::Adjacency("E");
    index = std::make_unique<QueryIndex>(g, *query, AllParams(g, 1));
    weights = RandomWeights(g, 1000, 9999, rng);
    LocalSchemeOptions opts;
    opts.epsilon = 0.25;
    opts.key = {seed, seed + 1};
    opts.encoding = PairEncoding::kAntipodal;
    scheme = std::make_unique<LocalScheme>(
        LocalScheme::Plan(*index, opts).ValueOrDie());
  }
};

bool AllFromCoalition(const std::vector<Accusation>& accused,
                      const std::vector<uint64_t>& coalition) {
  for (const Accusation& a : accused) {
    bool member = false;
    for (uint64_t m : coalition) member |= (m == a.recipient);
    if (!member) return false;
  }
  return true;
}

TEST(FingerprintTest, TardosCodeDeterministicFromSeed) {
  TardosOptions opts;
  opts.design_c = 3;
  opts.seed = 42;
  TardosCode code(500, opts);
  TardosCode again(500, opts);
  ASSERT_EQ(code.length(), 500u);
  EXPECT_GT(code.cutoff(), 0.0);
  EXPECT_LT(code.cutoff(), 0.5);
  for (size_t i = 0; i < code.length(); ++i) {
    EXPECT_GE(code.bias(i), code.cutoff()) << i;
    EXPECT_LE(code.bias(i), 1.0 - code.cutoff()) << i;
    EXPECT_EQ(code.bias(i), again.bias(i)) << i;
  }
  EXPECT_EQ(code.CodewordOf(7), again.CodewordOf(7));

  // The streaming generator and the materialized codeword agree bit for bit.
  TardosCode::Stream stream = code.StreamOf(7);
  BitVec word = code.CodewordOf(7);
  for (size_t i = 0; i < code.length(); ++i) {
    EXPECT_EQ(stream.NextBit(), word.Get(i)) << i;
  }

  // Distinct recipients and distinct seeds give distinct codewords.
  EXPECT_NE(code.CodewordOf(7), code.CodewordOf(8));
  TardosOptions reseeded = opts;
  reseeded.seed = 43;
  EXPECT_NE(TardosCode(500, reseeded).CodewordOf(7), code.CodewordOf(7));
}

TEST(FingerprintTest, HonestSingleCopyMatchesPlainDetect) {
  Fixture s(6000, 3);
  AdversarialScheme adv(*s.scheme, 3);
  IdentityCodec codec;
  CodedWatermark wm(adv, codec);
  ASSERT_GT(wm.PayloadBits(), 400u);

  TardosOptions topts;
  topts.design_c = 2;
  topts.seed = 31;
  FingerprintedWatermark fp(wm, topts);
  const uint64_t leaker = 37;
  const uint64_t candidates = 500;

  WeightMap marked = fp.EmbedFor(s.weights, leaker);
  HonestServer server(*s.index, marked);

  // The observation *is* one plain coded detection — same payload, same
  // verdict, nothing resampled.
  FingerprintObservation obs = fp.Observe(s.weights, server).ValueOrDie();
  CodedDetection plain = wm.Detect(s.weights, server).ValueOrDie();
  EXPECT_EQ(obs.channel.message.payload, plain.message.payload);
  EXPECT_EQ(obs.channel.verdict.kind, plain.verdict.kind);
  EXPECT_EQ(obs.channel.verdict.fp_bound, plain.verdict.fp_bound);
  EXPECT_EQ(obs.channel.message.payload, fp.CodewordOf(leaker));
  EXPECT_EQ(plain.verdict.kind, VerdictKind::kMatch);

  TraceResult traced = fp.TraceMany(obs, candidates);
  EXPECT_EQ(traced.kind, TraceVerdictKind::kTraced);
  EXPECT_EQ(traced.ExitCode(), 0);
  ASSERT_EQ(traced.accused.size(), 1u);
  EXPECT_EQ(traced.accused[0].recipient, leaker);
  EXPECT_LE(traced.accused[0].log10_fp, -6.0);
  EXPECT_EQ(traced.accused[0].score, fp.Score(obs, leaker));
  EXPECT_GE(traced.accused[0].score, traced.threshold);
  ASSERT_FALSE(traced.top.empty());
  EXPECT_EQ(traced.top[0].recipient, leaker);
}

TEST(FingerprintTest, SeedGridNeverAccusesInnocents) {
  Fixture s(12000, 5);
  AdversarialScheme adv(*s.scheme, 3);
  IdentityCodec codec;
  CodedWatermark wm(adv, codec);
  ASSERT_GT(wm.PayloadBits(), 1200u);

  WeightMap unrelated = s.weights;
  Rng wrng(99);
  unrelated.ForEach([&](const Tuple& t, Weight) {
    unrelated.Set(t, wrng.Uniform(1000, 9999));
  });

  const uint64_t candidates = 2000;
  const std::vector<uint64_t> coalition = {11, 1203};
  for (uint64_t code_seed : {51u, 52u, 53u}) {
    TardosOptions topts;
    topts.design_c = 2;
    topts.seed = code_seed;
    FingerprintedWatermark fp(wm, topts);

    // Honest runs: the untouched original and an unrelated database must
    // accuse nobody and report NO MARK.
    for (const WeightMap* honest : {&s.weights, &unrelated}) {
      HonestServer server(*s.index, *honest);
      FingerprintObservation obs = fp.Observe(s.weights, server).ValueOrDie();
      TraceResult traced = fp.TraceMany(obs, candidates);
      EXPECT_TRUE(traced.accused.empty()) << "seed " << code_seed;
      EXPECT_EQ(traced.kind, TraceVerdictKind::kNoMark) << "seed " << code_seed;
      EXPECT_EQ(traced.ExitCode(), 1) << "seed " << code_seed;
    }

    // Colluded runs: every attack, full design-size coalition. At least one
    // member must be traced and nobody outside the coalition ever is.
    WeightMap copy_a = fp.EmbedFor(s.weights, coalition[0]);
    WeightMap copy_b = fp.EmbedFor(s.weights, coalition[1]);
    const std::vector<const WeightMap*> copies = {&copy_a, &copy_b};
    for (const std::string& spec : KnownCollusionSpecs()) {
      auto attack = MakeCollusionAttack(spec).ValueOrDie();
      Rng arng(code_seed * 1000003 + 7);
      WeightMap forged = attack->Forge(copies, arng).ValueOrDie();
      HonestServer server(*s.index, forged);
      FingerprintObservation obs = fp.Observe(s.weights, server).ValueOrDie();
      TraceResult traced = fp.TraceMany(obs, candidates);
      EXPECT_TRUE(AllFromCoalition(traced.accused, coalition))
          << spec << " seed " << code_seed;
      EXPECT_EQ(traced.kind, TraceVerdictKind::kTraced)
          << spec << " seed " << code_seed;
      EXPECT_FALSE(traced.accused.empty()) << spec << " seed " << code_seed;
      for (const Accusation& a : traced.accused) {
        EXPECT_LE(a.log10_fp, -6.0) << spec << " seed " << code_seed;
      }
    }
  }
}

TEST(FingerprintTest, OverDesignCoalitionDegradesGracefully) {
  Fixture s(12000, 7);
  AdversarialScheme adv(*s.scheme, 3);
  IdentityCodec codec;
  CodedWatermark wm(adv, codec);

  TardosOptions topts;
  topts.design_c = 2;
  topts.seed = 71;
  FingerprintedWatermark fp(wm, topts);

  // A coalition far past design_c running the strongest wash-out. The only
  // acceptable outcomes are a correct accusation or abstention — never an
  // innocent.
  const std::vector<uint64_t> coalition = {3, 401, 807, 1204, 1603};
  std::vector<WeightMap> copies;
  std::vector<const WeightMap*> ptrs;
  for (uint64_t member : coalition) {
    copies.push_back(fp.EmbedFor(s.weights, member));
  }
  for (const WeightMap& c : copies) ptrs.push_back(&c);
  Rng arng(73);
  WeightMap forged = MedianCollusion().Forge(ptrs, arng).ValueOrDie();
  HonestServer server(*s.index, forged);
  FingerprintObservation obs = fp.Observe(s.weights, server).ValueOrDie();
  TraceResult traced = fp.TraceMany(obs, 2000);
  EXPECT_TRUE(AllFromCoalition(traced.accused, coalition));
  if (traced.accused.empty()) {
    EXPECT_EQ(traced.kind, TraceVerdictKind::kUntraceable);
    EXPECT_EQ(traced.ExitCode(), 3);
  } else {
    EXPECT_EQ(traced.kind, TraceVerdictKind::kTraced);
  }
}

TEST(FingerprintTest, TraceManyThreadIdentical) {
  Fixture s(6000, 11);
  AdversarialScheme adv(*s.scheme, 3);
  IdentityCodec codec;
  CodedWatermark wm(adv, codec);

  TardosOptions topts;
  topts.design_c = 2;
  topts.seed = 111;
  FingerprintedWatermark fp(wm, topts);

  WeightMap copy_a = fp.EmbedFor(s.weights, 5);
  WeightMap copy_b = fp.EmbedFor(s.weights, 900);
  Rng arng(113);
  WeightMap forged =
      InterleavingCollusion(32).Forge({&copy_a, &copy_b}, arng).ValueOrDie();
  HonestServer server(*s.index, forged);

  SetParallelThreads(1);
  FingerprintObservation base_obs = fp.Observe(s.weights, server).ValueOrDie();
  TraceResult base = fp.TraceMany(base_obs, 5000);
  for (size_t threads : {1u, 2u, 8u}) {
    SetParallelThreads(threads);
    FingerprintObservation obs = fp.Observe(s.weights, server).ValueOrDie();
    ASSERT_EQ(obs.score_if_one, base_obs.score_if_one) << threads;
    ASSERT_EQ(obs.score_if_zero, base_obs.score_if_zero) << threads;
    EXPECT_EQ(obs.null_variance, base_obs.null_variance) << threads;
    TraceResult traced = fp.TraceMany(obs, 5000);
    EXPECT_EQ(traced.kind, base.kind) << threads;
    EXPECT_EQ(traced.threshold, base.threshold) << threads;
    EXPECT_EQ(traced.pruned, base.pruned) << threads;
    ASSERT_EQ(traced.accused.size(), base.accused.size()) << threads;
    for (size_t i = 0; i < base.accused.size(); ++i) {
      EXPECT_EQ(traced.accused[i].recipient, base.accused[i].recipient);
      EXPECT_EQ(traced.accused[i].score, base.accused[i].score);
      EXPECT_EQ(traced.accused[i].log10_fp, base.accused[i].log10_fp);
    }
    ASSERT_EQ(traced.top.size(), base.top.size()) << threads;
    for (size_t i = 0; i < base.top.size(); ++i) {
      EXPECT_EQ(traced.top[i].recipient, base.top[i].recipient);
      EXPECT_EQ(traced.top[i].score, base.top[i].score);
    }
  }
  SetParallelThreads(0);
}

// --- Lane-kernel oracle ------------------------------------------------------

constexpr double kInf = std::numeric_limits<double>::infinity();

bool RefBefore(const Accusation& a, const Accusation& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.recipient < b.recipient;
}

void RefInsertTopK(std::vector<Accusation>& top, const Accusation& a, size_t k) {
  if (k == 0) return;
  if (top.size() == k && !RefBefore(a, top.back())) return;
  top.insert(std::upper_bound(top.begin(), top.end(), a, RefBefore), a);
  if (top.size() > k) top.pop_back();
}

double RefNullTailLog10(double score, double variance, double max_term) {
  if (score <= 0) return 0;
  const double denom = 2.0 * (variance + max_term * score / 3.0);
  if (denom <= 0) return -kInf;
  return -(score * score / denom) / std::log(10.0);
}

/// One candidate of the scalar reference scan: a left-to-right running sum
/// with the prune test after every position. Returns false when the
/// candidate is pruned.
bool ReferenceScan(const FingerprintedWatermark& fp,
                   const FingerprintObservation& obs,
                   const std::vector<double>& suffix, double prune_below,
                   uint64_t recipient, double& score) {
  TardosCode::Stream stream = fp.code().StreamOf(recipient);
  score = 0;
  for (size_t i = 0; i < fp.Positions(); ++i) {
    score += stream.NextBit() ? obs.score_if_one[i] : obs.score_if_zero[i];
    if (score + suffix[i + 1] < prune_below) return false;
  }
  return true;
}

std::vector<double> ReferenceSuffix(const FingerprintObservation& obs) {
  const size_t n = obs.score_if_one.size();
  std::vector<double> suffix(n + 1, 0.0);
  for (size_t i = n; i-- > 0;) {
    suffix[i] = suffix[i + 1] +
                std::max(0.0, std::max(obs.score_if_one[i], obs.score_if_zero[i]));
  }
  return suffix;
}

/// TraceMany as a serial scalar scan: the oracle the lane kernel must match
/// bit for bit.
TraceResult ReferenceTraceMany(const FingerprintedWatermark& fp,
                               const FingerprintObservation& obs,
                               uint64_t candidates, const TraceOptions& options) {
  TraceResult result;
  result.candidates = candidates;
  result.fp_threshold = fp.code().options().fp_threshold;
  result.null_variance = obs.null_variance;
  result.max_term = obs.max_term;
  result.threshold = fp.AccusationThreshold(obs, candidates);
  const std::vector<double> suffix = ReferenceSuffix(obs);
  result.max_achievable = suffix[0];
  if (obs.null_variance <= 0 || result.max_achievable < result.threshold) {
    result.pruned = candidates;
  } else {
    const double log10_n = std::log10(static_cast<double>(candidates));
    const double prune_below =
        options.prune ? options.prune_frac * result.threshold : -kInf;
    for (uint64_t j = 0; j < candidates; ++j) {
      double score = 0;
      if (!ReferenceScan(fp, obs, suffix, prune_below, j, score)) {
        ++result.pruned;
        continue;
      }
      Accusation a;
      a.recipient = j;
      a.score = score;
      a.log10_fp = std::min(
          0.0, log10_n + RefNullTailLog10(score, obs.null_variance, obs.max_term));
      if (score >= result.threshold) result.accused.push_back(a);
      RefInsertTopK(result.top, a, options.top_k);
    }
    std::sort(result.accused.begin(), result.accused.end(), RefBefore);
  }
  if (!result.accused.empty()) {
    result.kind = TraceVerdictKind::kTraced;
  } else if (obs.channel.verdict.kind == VerdictKind::kNoMark) {
    result.kind = TraceVerdictKind::kNoMark;
  } else {
    result.kind = TraceVerdictKind::kUntraceable;
  }
  return result;
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

void ExpectSameAccusations(const std::vector<Accusation>& got,
                           const std::vector<Accusation>& want,
                           const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].recipient, want[i].recipient) << where << " #" << i;
    EXPECT_EQ(Bits(got[i].score), Bits(want[i].score)) << where << " #" << i;
    EXPECT_EQ(Bits(got[i].log10_fp), Bits(want[i].log10_fp)) << where << " #" << i;
  }
}

void ExpectSameTrace(const TraceResult& got, const TraceResult& want,
                     const std::string& where) {
  EXPECT_EQ(got.kind, want.kind) << where;
  EXPECT_EQ(Bits(got.threshold), Bits(want.threshold)) << where;
  EXPECT_EQ(Bits(got.fp_threshold), Bits(want.fp_threshold)) << where;
  EXPECT_EQ(Bits(got.max_achievable), Bits(want.max_achievable)) << where;
  EXPECT_EQ(got.candidates, want.candidates) << where;
  EXPECT_EQ(got.pruned, want.pruned) << where;
  EXPECT_EQ(Bits(got.null_variance), Bits(want.null_variance)) << where;
  EXPECT_EQ(Bits(got.max_term), Bits(want.max_term)) << where;
  ExpectSameAccusations(got.accused, want.accused, where + " accused");
  ExpectSameAccusations(got.top, want.top, where + " top");
}

/// The suspects the oracle runs over: a single leaker, a 3-member averaging
/// coalition and an unrelated database, for one planted instance.
struct OracleSuspects {
  std::vector<std::string> names;
  std::vector<FingerprintObservation> obs;
};

OracleSuspects MakeOracleSuspects(const Fixture& s,
                                  const FingerprintedWatermark& fp,
                                  uint64_t seed) {
  OracleSuspects out;
  const WeightMap leak = fp.EmbedFor(s.weights, 7 + seed);
  out.names.push_back("single leaker");
  out.obs.push_back(
      fp.Observe(s.weights, HonestServer(*s.index, leak)).ValueOrDie());

  std::vector<WeightMap> copies;
  for (uint64_t member : {2u, 40u, 333u}) {
    copies.push_back(fp.EmbedFor(s.weights, member + seed));
  }
  Rng arng(seed * 7 + 1);
  const WeightMap averaged =
      AveragingCollusion()
          .Forge({&copies[0], &copies[1], &copies[2]}, arng)
          .ValueOrDie();
  out.names.push_back("averaging coalition");
  out.obs.push_back(
      fp.Observe(s.weights, HonestServer(*s.index, averaged)).ValueOrDie());

  WeightMap unrelated = s.weights;
  Rng wrng(seed + 99);
  unrelated.ForEach([&](const Tuple& t, Weight) {
    unrelated.Set(t, wrng.Uniform(1000, 9999));
  });
  out.names.push_back("unrelated copy");
  out.obs.push_back(
      fp.Observe(s.weights, HonestServer(*s.index, unrelated)).ValueOrDie());
  return out;
}

TEST(FingerprintTest, LaneThresholdIsExactlyNextDoubleCompare) {
  TardosOptions topts;
  topts.design_c = 5;
  topts.seed = 9;
  TardosCode code(2000, topts);
  FingerprintObservation obs;
  obs.score_if_one.assign(code.length(), 1.0);
  obs.score_if_zero.assign(code.length(), -1.0);
  const std::vector<trace_lanes::Position> table =
      trace_lanes::BuildTable(code, obs, ReferenceSuffix(obs));
  for (size_t i = 0; i < code.length(); ++i) {
    const uint64_t k = table[i].bit_below;
    // k is the least integer m with m * 2^-53 >= p_i.
    EXPECT_GE(static_cast<double>(k) * 0x1.0p-53, code.bias(i)) << i;
    EXPECT_LT(static_cast<double>(k - 1) * 0x1.0p-53, code.bias(i)) << i;
  }
}

TEST(FingerprintTest, TraceManyMatchesScalarOracle) {
  for (uint64_t seed : {1u, 2u}) {
    Fixture s(6000, 40 + seed);
    AdversarialScheme adv(*s.scheme, 3);
    IdentityCodec codec;
    CodedWatermark wm(adv, codec);
    TardosOptions topts;
    topts.design_c = 3;
    topts.seed = 400 + seed;
    FingerprintedWatermark fp(wm, topts);
    const OracleSuspects suspects = MakeOracleSuspects(s, fp, seed);

    for (size_t k = 0; k < suspects.obs.size(); ++k) {
      const FingerprintObservation& obs = suspects.obs[k];
      for (bool prune : {true, false}) {
        TraceOptions options;
        options.prune = prune;
        for (uint64_t candidates : {1u, 3u, 4u, 5u, 4097u}) {
          const TraceResult want = ReferenceTraceMany(fp, obs, candidates, options);
          for (size_t threads : {1u, 2u, 8u}) {
            SetParallelThreads(threads);
            const std::string where =
                "seed " + std::to_string(seed) + " " + suspects.names[k] +
                " prune " + std::to_string(prune) + " candidates " +
                std::to_string(candidates) + " threads " + std::to_string(threads);
            ExpectSameTrace(fp.TraceMany(obs, candidates, options), want, where);
          }
        }
      }
    }
  }
  SetParallelThreads(0);
}

TEST(FingerprintTest, TraceManyMatchesOracleOnHopelessObservations) {
  Fixture s(6000, 44);
  AdversarialScheme adv(*s.scheme, 3);
  IdentityCodec codec;
  CodedWatermark wm(adv, codec);
  TardosOptions topts;
  topts.design_c = 3;
  topts.seed = 404;
  FingerprintedWatermark fp(wm, topts);
  FingerprintObservation obs =
      fp.Observe(s.weights, HonestServer(*s.index, fp.EmbedFor(s.weights, 1)))
          .ValueOrDie();

  // No information at all: the threshold is infinite.
  FingerprintObservation blank = obs;
  std::fill(blank.score_if_one.begin(), blank.score_if_one.end(), 0.0);
  std::fill(blank.score_if_zero.begin(), blank.score_if_zero.end(), 0.0);
  blank.null_variance = 0;
  blank.max_term = 0;
  // Information, but no codeword can reach the threshold.
  FingerprintObservation faint = obs;
  for (size_t i = 0; i < fp.Positions(); ++i) {
    faint.score_if_one[i] *= 1e-6;
    faint.score_if_zero[i] *= 1e-6;
  }
  for (const FingerprintObservation* hopeless : {&blank, &faint}) {
    for (uint64_t candidates : {1u, 5u, 4097u}) {
      const TraceResult want = ReferenceTraceMany(fp, *hopeless, candidates, {});
      EXPECT_EQ(want.pruned, candidates);
      EXPECT_LT(want.max_achievable, want.threshold);
      for (size_t threads : {1u, 2u, 8u}) {
        SetParallelThreads(threads);
        ExpectSameTrace(fp.TraceMany(*hopeless, candidates), want,
                        "hopeless candidates " + std::to_string(candidates));
      }
    }
  }
  SetParallelThreads(0);
}

// The library dispatches the lane scan to a per-target clone. This TU builds
// the same kernel for the baseline target only, so the non-AVX2 build is
// checked against the scalar scan on every machine.
TEST(FingerprintTest, BaselineLaneKernelMatchesScalarScan) {
  Fixture s(6000, 45);
  AdversarialScheme adv(*s.scheme, 3);
  IdentityCodec codec;
  CodedWatermark wm(adv, codec);
  TardosOptions topts;
  topts.design_c = 3;
  topts.seed = 405;
  FingerprintedWatermark fp(wm, topts);
  const OracleSuspects suspects = MakeOracleSuspects(s, fp, 5);

  for (size_t k = 0; k < suspects.obs.size(); ++k) {
    const FingerprintObservation& obs = suspects.obs[k];
    const std::vector<double> suffix = ReferenceSuffix(obs);
    const std::vector<trace_lanes::Position> table =
        trace_lanes::BuildTable(fp.code(), obs, suffix);
    const double threshold = fp.AccusationThreshold(obs, 4097);
    for (double prune_below : {0.5 * threshold, 0.0, -kInf}) {
      // Ranges that start off a multiple of four and end in partial groups.
      for (uint64_t begin : {0u, 3u, 1001u}) {
        for (uint64_t count : {1u, 2u, 4u, 7u, 530u}) {
          std::vector<double> score(count);
          std::unique_ptr<bool[]> alive(new bool[count]);
          trace_lanes::ScanRange(fp.code(), table, prune_below, begin,
                                 begin + count, score.data(), alive.get());
          for (uint64_t j = 0; j < count; ++j) {
            double want = 0;
            const bool survives =
                ReferenceScan(fp, obs, suffix, prune_below, begin + j, want);
            ASSERT_EQ(alive[j], survives)
                << suspects.names[k] << " candidate " << begin + j;
            if (survives) {
              ASSERT_EQ(Bits(score[j]), Bits(want))
                  << suspects.names[k] << " candidate " << begin + j;
            }
          }
        }
      }
    }
    // Unpruned, every candidate's lane score is the exact Score().
    std::vector<double> score(9);
    std::unique_ptr<bool[]> alive(new bool[9]);
    trace_lanes::ScanRange(fp.code(), table, -kInf, 20, 29, score.data(),
                           alive.get());
    for (uint64_t j = 0; j < 9; ++j) {
      EXPECT_TRUE(alive[j]);
      EXPECT_EQ(Bits(score[j]), Bits(fp.Score(obs, 20 + j)));
    }
  }
}

}  // namespace
}  // namespace qpwm
