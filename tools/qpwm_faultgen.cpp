// qpwm_faultgen — fault-injection campaign against the adversarial scheme.
//
// Two report families, both emitted into one JSON document (BENCH_robust.json
// in CI):
//
//   * Channel campaigns (deletion / insertion / mixed sweeps): the raw
//     majority-vote channel under structural attacks, as in PR 1.
//   * Codec grid: every message codec (identity = the uncoded baseline,
//     codec-level repetition, interleaved Hamming(7,4), interleaved
//     Reed-Muller RM(1,4), plus a non-interleaved Hamming ablation) against
//     a composed adversary (value noise + jitter + rounding + burst region
//     deletion + independent deletion + insertion) swept over severity
//     levels. Per level: payload survival, corrections, false-positive
//     bounds, plus honest-suspect trials (unmarked original and unrelated
//     weights) that must never produce a MATCH verdict.
//
// Every trial's attack seed is derived deterministically and recorded in the
// report, so any single trial replays from the report alone. The workload
// (graph, query index, planned scheme) is built once from the campaign seed
// and shared read-only by every trial. Trials within a level run in parallel
// on the shared thread pool; the report is byte-identical for any
// QPWM_THREADS.
//
// Flags (all optional):
//   --elements N     universe size of the random workload      (default 400)
//   --redundancy R   pairs per message bit                     (default 5)
//   --trials T       seeded trials per attack level            (default 20)
//   --seed S         campaign base seed                        (default 1)
//   --threads N      worker threads (0 = QPWM_THREADS/hardware) (default 0)
//   --codec C        restrict the codec grid to one codec spec  (default all)
//   --out F          JSON report path                          (default stdout)
//
// Exit codes follow the CLI contract: 0 = campaign ran clean, 1 = at least
// one trial's detection returned an internal error (the trial is recorded as
// an internal_error in its level, never silently dropped), 2 = usage/I/O
// error.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "qpwm/coding/coded_watermark.h"
#include "qpwm/coding/codec.h"
#include "qpwm/core/adversarial.h"
#include "qpwm/core/attack.h"
#include "qpwm/core/local_scheme.h"
#include "qpwm/logic/query.h"
#include "qpwm/structure/generators.h"
#include "qpwm/util/json.h"
#include "qpwm/util/parallel.h"
#include "qpwm/util/random.h"
#include "qpwm/util/str.h"

using namespace qpwm;

namespace {

struct Options {
  size_t elements = 400;
  size_t redundancy = 5;
  size_t trials = 20;
  uint64_t seed = 1;
  size_t threads = 0;   // 0 = env/hardware default
  size_t collusion = 0; // max coalition size for the collusion sweep; <2 = off
  std::string codec;    // empty = the full grid
  std::string out;      // empty = stdout
};

// Per-trial attack seeds are seed + tag * kSeedStride + trial; the formula is
// recorded in the report next to the explicit seed lists.
constexpr uint64_t kSeedStride = 1000003;

// Version of the report's JSON shape; bump on any change to it.
constexpr int kReportSchemaVersion = 1;

uint64_t TrialSeed(const Options& opt, uint64_t level_tag, size_t trial) {
  return opt.seed + level_tag * kSeedStride + trial;
}

// The planned scheme every trial detects against. Built once per campaign;
// all members are immutable after Build and safe to share across trials.
struct Workload {
  Structure g;
  std::unique_ptr<ParametricQuery> query;
  std::optional<QueryIndex> index;
  std::optional<WeightMap> weights;
  std::optional<LocalScheme> scheme;
  std::optional<AdversarialScheme> adv;

  static std::unique_ptr<Workload> Build(const Options& opt) {
    auto wl = std::make_unique<Workload>();
    Rng rng(opt.seed);
    wl->g = RandomBoundedDegreeGraph(opt.elements, 3, 3 * opt.elements, false, rng);
    wl->query = AtomQuery::Adjacency("E");
    wl->index.emplace(wl->g, *wl->query, AllParams(wl->g, 1));
    wl->weights.emplace(RandomWeights(wl->g, 1000, 9999, rng));

    LocalSchemeOptions scheme_opts;
    scheme_opts.epsilon = 0.25;
    scheme_opts.key = {opt.seed, opt.seed + 1};
    scheme_opts.encoding = PairEncoding::kAntipodal;
    auto scheme = LocalScheme::Plan(*wl->index, scheme_opts);
    QPWM_CHECK(scheme.ok());
    wl->scheme.emplace(std::move(scheme).value());
    wl->adv.emplace(*wl->scheme, opt.redundancy);
    return wl;
  }
};

// --- Channel campaigns (raw majority channel, as in PR 1) -------------------

struct TrialOutcome {
  bool full_mark = false;           // complete() and mark == message
  bool recovered_correct = false;   // every non-erased bit matches
  bool internal_error = false;      // detection returned a non-OK Status
  size_t bits_erased = 0;
  size_t pairs_erased = 0;
  double min_margin = 0;
};

struct LevelSummary {
  double deletion_frac = 0;
  double insertion_frac = 0;
  size_t trials = 0;
  uint64_t level_tag = 0;
  size_t full_mark = 0;
  size_t recovered_correct = 0;
  size_t internal_errors = 0;
  double mean_bits_erased = 0;
  double mean_pairs_erased = 0;
  double mean_min_margin = 0;
};

// One seeded trial against the shared workload: random message, structural
// attack through a TamperedAnswerServer, erasure-aware detection.
TrialOutcome RunTrial(const Workload& wl, double deletion_frac,
                      double insertion_frac, uint64_t seed) {
  Rng rng(seed);
  const AdversarialScheme& adv = *wl.adv;
  if (adv.CapacityBits() == 0) return {};

  BitVec msg(adv.CapacityBits());
  for (size_t i = 0; i < msg.size(); ++i) msg.Set(i, rng.Coin());
  WeightMap marked = adv.Embed(*wl.weights, msg);

  HonestServer base(*wl.index, std::move(marked));
  TamperedAnswerServer server(base);
  for (const Tuple& t : SubsetDeletionAttack(*wl.index, deletion_frac, rng)) {
    server.Erase(t);
  }
  const size_t insertions = static_cast<size_t>(
      insertion_frac * static_cast<double>(wl.index->num_active()));
  TupleInsertionAttack(server, *wl.index, base.weights(), insertions, rng);

  TrialOutcome out;
  auto detection = adv.Detect(*wl.weights, server);
  if (!detection.ok()) {
    // The channel is specified to degrade into partial results, never
    // errors; a non-OK Status here is a detector bug. Record it instead of
    // aborting so the rest of the campaign still reports.
    out.internal_error = true;
    return out;
  }
  const AdversarialDetection& d = detection.value();

  out.bits_erased = d.bits_erased;
  out.pairs_erased = d.pairs_erased;
  out.min_margin = d.min_margin;
  out.recovered_correct = true;
  for (size_t i = 0; i < d.mark.size(); ++i) {
    if (!d.bit_erased[i] && d.mark.Get(i) != msg.Get(i)) {
      out.recovered_correct = false;
    }
  }
  out.full_mark = d.complete() && d.mark == msg;
  return out;
}

LevelSummary RunLevel(const Options& opt, const Workload& wl,
                      double deletion_frac, double insertion_frac,
                      uint64_t level_tag) {
  LevelSummary s;
  s.deletion_frac = deletion_frac;
  s.insertion_frac = insertion_frac;
  s.trials = opt.trials;
  s.level_tag = level_tag;
  // Trials are independent given their seeds; ParallelMap stores outcomes by
  // trial index and the reduction below runs serially in that order, so the
  // summary is bit-identical for any thread count.
  std::vector<TrialOutcome> outcomes =
      ParallelMap<TrialOutcome>(opt.trials, [&](size_t t) {
        return RunTrial(wl, deletion_frac, insertion_frac,
                        TrialSeed(opt, level_tag, t));
      });
  for (const TrialOutcome& o : outcomes) {
    s.full_mark += o.full_mark;
    s.recovered_correct += o.recovered_correct;
    s.internal_errors += o.internal_error;
    s.mean_bits_erased += static_cast<double>(o.bits_erased);
    s.mean_pairs_erased += static_cast<double>(o.pairs_erased);
    s.mean_min_margin += o.min_margin;
  }
  const double n = static_cast<double>(opt.trials);
  s.mean_bits_erased /= n;
  s.mean_pairs_erased /= n;
  s.mean_min_margin /= n;
  return s;
}

void WriteTrialSeeds(JsonWriter& json, const Options& opt, uint64_t level_tag) {
  json.Key("trial_seeds").BeginArray();
  for (size_t t = 0; t < opt.trials; ++t) json.UInt(TrialSeed(opt, level_tag, t));
  json.EndArray();
}

void WriteLevel(JsonWriter& json, const Options& opt, const LevelSummary& s) {
  const double n = static_cast<double>(s.trials);
  json.BeginObject();
  json.Key("deletion_frac").Double(s.deletion_frac);
  json.Key("insertion_frac").Double(s.insertion_frac);
  json.Key("trials").UInt(s.trials);
  json.Key("full_mark_rate").Double(static_cast<double>(s.full_mark) / n);
  json.Key("recovered_correct_rate")
      .Double(static_cast<double>(s.recovered_correct) / n);
  json.Key("internal_errors").UInt(s.internal_errors);
  json.Key("mean_bits_erased").Double(s.mean_bits_erased);
  json.Key("mean_pairs_erased").Double(s.mean_pairs_erased);
  json.Key("mean_min_margin").Double(s.mean_min_margin);
  WriteTrialSeeds(json, opt, s.level_tag);
  json.EndObject();
}

// --- Collusion sweep (channel-level washout under coalition forgeries) ------
//
// Each trial embeds `coalition` copies carrying independent random marks,
// forges a hybrid through one CollusionAttack, and detects against the
// original. The reported metrics are channel-level washout diagnostics (how
// much of the mark a coalition of a given size erases or flips), the raw
// counterpart to the codeword-level tracing campaign in bench_trace:
//
//   * unanimous_recovery_rate — bits where every coalition copy agrees must
//     survive any feasible (marking-assumption) attack; this is the Boneh-Shaw
//     floor the Tardos accusation leans on.
//   * member0_agreement — how close the recovered mark is to one member's,
//     over non-erased bits (0.5 = fully washed, 1.0 = that copy leaked intact).

struct CollusionOutcome {
  bool internal_error = false;  // forge or detection returned a non-OK Status
  size_t bits_erased = 0;
  double min_margin = 0;
  size_t unanimous_bits = 0;
  size_t unanimous_recovered = 0;
  size_t compared_bits = 0;  // non-erased bits
  size_t member0_agree = 0;  // non-erased bits matching member 0's mark
};

CollusionOutcome RunCollusionTrial(const Workload& wl,
                                   const CollusionAttack& attack,
                                   size_t coalition, uint64_t seed) {
  Rng rng(seed);
  CollusionOutcome out;
  const AdversarialScheme& adv = *wl.adv;
  if (adv.CapacityBits() == 0) return out;

  std::vector<BitVec> msgs;
  std::vector<WeightMap> copies;
  for (size_t j = 0; j < coalition; ++j) {
    BitVec m(adv.CapacityBits());
    for (size_t i = 0; i < m.size(); ++i) m.Set(i, rng.Coin());
    copies.push_back(adv.Embed(*wl.weights, m));
    msgs.push_back(std::move(m));
  }
  std::vector<const WeightMap*> ptrs;
  for (const WeightMap& c : copies) ptrs.push_back(&c);

  auto forged = attack.Forge(ptrs, rng);
  if (!forged.ok()) {
    out.internal_error = true;
    return out;
  }
  HonestServer server(*wl.index, std::move(forged).value());
  auto detection = adv.Detect(*wl.weights, server);
  if (!detection.ok()) {
    out.internal_error = true;
    return out;
  }
  const AdversarialDetection& d = detection.value();

  out.bits_erased = d.bits_erased;
  out.min_margin = d.min_margin;
  for (size_t i = 0; i < d.mark.size(); ++i) {
    bool unanimous = true;
    for (size_t j = 1; j < coalition; ++j) {
      unanimous &= msgs[j].Get(i) == msgs[0].Get(i);
    }
    if (unanimous) {
      ++out.unanimous_bits;
      out.unanimous_recovered +=
          !d.bit_erased[i] && d.mark.Get(i) == msgs[0].Get(i);
    }
    if (!d.bit_erased[i]) {
      ++out.compared_bits;
      out.member0_agree += d.mark.Get(i) == msgs[0].Get(i);
    }
  }
  return out;
}

// Emits the collusion sweep section (coalition size 2..opt.collusion x every
// registered attack). Returns the number of internal errors.
size_t RunCollusionSweep(const Options& opt, const Workload& wl,
                         JsonWriter& json) {
  size_t internal_errors = 0;
  const std::vector<std::string>& specs = KnownCollusionSpecs();
  json.Key("collusion_sweep").BeginArray();
  for (size_t k = 2; k <= opt.collusion; ++k) {
    std::cerr << " c=" << k << std::flush;
    for (size_t ai = 0; ai < specs.size(); ++ai) {
      auto attack = MakeCollusionAttack(specs[ai]);
      QPWM_CHECK(attack.ok());
      // Level tags continue well past the codec grid's range so the seed
      // schedule never collides with existing campaigns.
      const uint64_t level_tag = 10000 + k * 10 + ai;
      std::vector<CollusionOutcome> outcomes =
          ParallelMap<CollusionOutcome>(opt.trials, [&](size_t t) {
            return RunCollusionTrial(wl, *attack.value(), k,
                                     TrialSeed(opt, level_tag, t));
          });
      size_t errors = 0;
      double erased = 0, margin = 0;
      double unanimous = 0, unanimous_rec = 0, compared = 0, agree = 0;
      for (const CollusionOutcome& o : outcomes) {
        errors += o.internal_error;
        erased += static_cast<double>(o.bits_erased);
        margin += o.min_margin;
        unanimous += static_cast<double>(o.unanimous_bits);
        unanimous_rec += static_cast<double>(o.unanimous_recovered);
        compared += static_cast<double>(o.compared_bits);
        agree += static_cast<double>(o.member0_agree);
      }
      internal_errors += errors;
      const double n = static_cast<double>(opt.trials);
      json.BeginObject();
      json.Key("coalition").UInt(k);
      json.Key("attack").String(attack.value()->Name());
      json.Key("trials").UInt(opt.trials);
      json.Key("mean_bits_erased").Double(erased / n);
      json.Key("mean_min_margin").Double(margin / n);
      json.Key("unanimous_recovery_rate")
          .Double(unanimous > 0 ? unanimous_rec / unanimous : 0.0);
      json.Key("member0_agreement").Double(compared > 0 ? agree / compared : 0.0);
      json.Key("internal_errors").UInt(errors);
      WriteTrialSeeds(json, opt, level_tag);
      json.EndObject();
    }
  }
  json.EndArray();
  return internal_errors;
}

// --- Codec grid (coded channel vs composed adversaries) ---------------------

struct GridCodec {
  std::string label;  // as reported
  std::string spec;   // MakeCodec spec
  bool interleave;
};

// The grid: the uncoded baseline, the codec-level repetition baseline, the
// two ECC codecs (interleaved), and a non-interleaved Hamming ablation that
// shows why the interleaver is load-bearing under burst deletion.
const GridCodec kGridCodecs[] = {
    {"identity", "identity", true},
    {"repetition:3", "repetition:3", true},
    {"hamming", "hamming", true},
    {"hamming:flat", "hamming", false},
    {"rm:4", "rm:4", true},
};

// Severity s scales every stage of the composed adversary. The burst region
// is the headline knob (it is what interleaving defends); the value-tier
// stages switch on at higher severities.
ComposedAttackSpec SpecForSeverity(double s, uint64_t seed) {
  ComposedAttackSpec spec;
  spec.region_frac = s;
  spec.deletion_frac = 0.2 * s;
  spec.insertion_frac = 0.5 * s;
  spec.noise = s >= 0.3 ? 1 : 0;
  spec.jitter_prob = 0.2 * s;
  spec.rounding = s >= 0.45 ? 2 : 0;
  spec.seed = seed;
  return spec;
}

const double kSeverities[] = {0.0, 0.15, 0.3, 0.45, 0.6};

struct CodedTrialOutcome {
  bool payload_full = false;     // complete and equal to the embedded payload
  bool payload_correct = false;  // every recovered payload bit matches
  bool verdict_match = false;    // MATCH verdict and equal payload
  bool internal_error = false;   // detection returned a non-OK Status
  size_t payload_erased = 0;
  size_t channel_erased = 0;
  size_t corrected = 0;
  size_t filled = 0;
  double log10_fp = 0;
};

CodedTrialOutcome RunCodedTrial(const Workload& wl, const CodedWatermark& wm,
                                double severity, uint64_t seed) {
  Rng rng(seed);
  CodedTrialOutcome out;
  if (wm.PayloadBits() == 0) return out;

  BitVec payload(wm.PayloadBits());
  for (size_t i = 0; i < payload.size(); ++i) payload.Set(i, rng.Coin());
  WeightMap marked = wm.Embed(*wl.weights, payload);

  ComposedSuspect suspect =
      ApplyComposedAttack(*wl.index, wl.scheme->marking().pairs(),
                          wl.adv->Redundancy(), marked,
                          SpecForSeverity(severity, seed));
  auto detection = wm.Detect(*wl.weights, *suspect.server);
  if (!detection.ok()) {
    out.internal_error = true;
    return out;
  }
  const CodedDetection& d = detection.value();

  out.payload_erased = d.message.bits_erased;
  out.channel_erased = d.channel.bits_erased;
  out.corrected = d.message.corrected;
  out.filled = d.message.filled;
  out.log10_fp = d.verdict.log10_fp_bound;
  out.payload_correct = true;
  for (size_t i = 0; i < d.message.payload.size(); ++i) {
    if (!d.message.bit_erased[i] &&
        d.message.payload.Get(i) != payload.Get(i)) {
      out.payload_correct = false;
    }
  }
  out.payload_full = d.message.complete() && d.message.payload == payload;
  out.verdict_match = d.verdict.kind == VerdictKind::kMatch &&
                      d.message.payload == payload;
  return out;
}

// Honest-suspect trial: the suspect either serves the unmarked original
// weights (even trials) or unrelated random weights (odd trials). Either
// way a MATCH verdict is a false positive.
struct HonestOutcome {
  bool false_positive = false;
  bool internal_error = false;  // detection returned a non-OK Status
  double log10_fp = 0;
};

HonestOutcome RunHonestTrial(const Workload& wl, const CodedWatermark& wm,
                             size_t trial, uint64_t seed) {
  HonestOutcome out;
  if (wm.PayloadBits() == 0) return out;
  Rng rng(seed);
  WeightMap weights =
      (trial % 2 == 0) ? *wl.weights : RandomWeights(wl.g, 1000, 9999, rng);
  HonestServer server(*wl.index, std::move(weights));
  auto detection = wm.Detect(*wl.weights, server);
  if (!detection.ok()) {
    out.internal_error = true;
    return out;
  }
  out.false_positive = detection.value().verdict.kind == VerdictKind::kMatch;
  out.log10_fp = detection.value().verdict.log10_fp_bound;
  return out;
}

// Returns the number of trials that hit an internal detection error.
size_t RunCodecGrid(const Options& opt, const Workload& wl, JsonWriter& json) {
  size_t internal_errors = 0;
  json.Key("codec_grid").BeginArray();
  uint64_t tag = 300;  // level tags continue after the channel campaigns
  for (const GridCodec& entry : kGridCodecs) {
    const uint64_t codec_tag_base = tag;
    tag += 100;
    if (!opt.codec.empty() && opt.codec != entry.label &&
        opt.codec != entry.spec) {
      continue;
    }
    auto codec = MakeCodec(entry.spec);
    QPWM_CHECK(codec.ok());
    CodedOptions coded_opts;
    coded_opts.interleave = entry.interleave;
    CodedWatermark wm(*wl.adv, *codec.value(), coded_opts);
    std::cerr << "codec " << entry.label;

    json.BeginObject();
    json.Key("codec").String(entry.label);
    json.Key("spec").String(entry.spec);
    json.Key("interleave").Bool(entry.interleave);
    json.Key("payload_bits").UInt(wm.PayloadBits());
    json.Key("used_channel_bits").UInt(wm.UsedChannelBits());
    json.Key("min_distance").UInt(codec.value()->MinDistance());
    json.Key("levels").BeginArray();

    for (size_t li = 0; li < std::size(kSeverities); ++li) {
      const double severity = kSeverities[li];
      const uint64_t level_tag = codec_tag_base + li;
      std::cerr << " " << severity << std::flush;
      std::vector<CodedTrialOutcome> outcomes =
          ParallelMap<CodedTrialOutcome>(opt.trials, [&](size_t t) {
            return RunCodedTrial(wl, wm, severity, TrialSeed(opt, level_tag, t));
          });
      size_t full = 0, correct = 0, match = 0, errors = 0;
      double erased = 0, ch_erased = 0, corrected = 0, filled = 0;
      double mean_fp = 0, max_fp = -1e300;
      for (const CodedTrialOutcome& o : outcomes) {
        full += o.payload_full;
        correct += o.payload_correct;
        match += o.verdict_match;
        errors += o.internal_error;
        erased += static_cast<double>(o.payload_erased);
        ch_erased += static_cast<double>(o.channel_erased);
        corrected += static_cast<double>(o.corrected);
        filled += static_cast<double>(o.filled);
        mean_fp += o.log10_fp;
        max_fp = std::max(max_fp, o.log10_fp);
      }
      const double n = static_cast<double>(opt.trials);
      const ComposedAttackSpec spec = SpecForSeverity(severity, 0);
      json.BeginObject();
      json.Key("severity").Double(severity);
      json.Key("attack").BeginObject();
      json.Key("noise").Int(spec.noise);
      json.Key("jitter_prob").Double(spec.jitter_prob);
      json.Key("rounding").Int(spec.rounding);
      json.Key("deletion_frac").Double(spec.deletion_frac);
      json.Key("region_frac").Double(spec.region_frac);
      json.Key("insertion_frac").Double(spec.insertion_frac);
      json.EndObject();
      json.Key("trials").UInt(opt.trials);
      json.Key("payload_full_rate").Double(static_cast<double>(full) / n);
      json.Key("payload_correct_rate").Double(static_cast<double>(correct) / n);
      json.Key("verdict_match_rate").Double(static_cast<double>(match) / n);
      json.Key("mean_payload_bits_erased").Double(erased / n);
      json.Key("mean_channel_bits_erased").Double(ch_erased / n);
      json.Key("mean_corrected").Double(corrected / n);
      json.Key("mean_filled").Double(filled / n);
      json.Key("mean_log10_fp_bound").Double(mean_fp / n);
      json.Key("max_log10_fp_bound").Double(max_fp);
      json.Key("internal_errors").UInt(errors);
      internal_errors += errors;
      WriteTrialSeeds(json, opt, level_tag);
      json.EndObject();
    }
    json.EndArray();

    // Honest suspects: unmarked original and unrelated random weights.
    const uint64_t honest_tag = codec_tag_base + 99;
    std::cerr << " honest" << std::flush;
    std::vector<HonestOutcome> honest =
        ParallelMap<HonestOutcome>(opt.trials, [&](size_t t) {
          return RunHonestTrial(wl, wm, t, TrialSeed(opt, honest_tag, t));
        });
    size_t fps = 0, honest_errors = 0;
    double worst_fp = 0;  // log10: closest an honest suspect came to a match
    for (const HonestOutcome& h : honest) {
      fps += h.false_positive;
      honest_errors += h.internal_error;
      worst_fp = std::min(worst_fp, h.log10_fp);
    }
    internal_errors += honest_errors;
    json.Key("honest").BeginObject();
    json.Key("trials").UInt(opt.trials);
    json.Key("false_positives").UInt(fps);
    json.Key("internal_errors").UInt(honest_errors);
    json.Key("min_log10_fp_bound").Double(worst_fp);
    WriteTrialSeeds(json, opt, honest_tag);
    json.EndObject();
    json.EndObject();
    std::cerr << "\n";
  }
  json.EndArray();
  return internal_errors;
}

int Run(const Options& opt) {
  std::cerr << "planning workload (" << opt.elements << " elements, "
            << ParallelThreads() << " threads)\n";
  std::unique_ptr<Workload> wl = Workload::Build(opt);

  JsonWriter json;
  json.BeginObject();
  json.Key("schema_version").Int(kReportSchemaVersion);
  json.Key("workload").BeginObject();
  json.Key("elements").UInt(opt.elements);
  json.Key("redundancy").UInt(opt.redundancy);
  json.Key("trials").UInt(opt.trials);
  json.Key("seed").UInt(opt.seed);
  json.Key("capacity_bits").UInt(wl->adv->CapacityBits());
  json.EndObject();
  // Reproducibility contract: every level records its explicit trial seeds,
  // derived as below; an attack replays from (spec, seed) alone.
  json.Key("seed_schedule").BeginObject();
  json.Key("base_seed").UInt(opt.seed);
  json.Key("stride").UInt(kSeedStride);
  json.Key("formula").String("base_seed + level_tag * stride + trial");
  json.EndObject();

  size_t internal_errors = 0;

  // Campaign 1: deletion sweep 0..90%.
  std::cerr << "deletion sweep";
  json.Key("deletion_sweep").BeginArray();
  for (int i = 0; i <= 9; ++i) {
    std::cerr << " " << i * 10 << "%" << std::flush;
    LevelSummary s = RunLevel(opt, *wl, i * 0.1, 0.0, static_cast<uint64_t>(i));
    internal_errors += s.internal_errors;
    WriteLevel(json, opt, s);
  }
  json.EndArray();
  std::cerr << "\n";

  // Campaign 2: insertion sweep (spurious rows relative to the active set).
  std::cerr << "insertion sweep";
  json.Key("insertion_sweep").BeginArray();
  for (int i = 0; i <= 4; ++i) {
    std::cerr << " " << i * 25 << "%" << std::flush;
    LevelSummary s =
        RunLevel(opt, *wl, 0.0, i * 0.25, 100 + static_cast<uint64_t>(i));
    internal_errors += s.internal_errors;
    WriteLevel(json, opt, s);
  }
  json.EndArray();
  std::cerr << "\n";

  // Campaign 3: combined deletion + insertion mixes.
  std::cerr << "mixed sweep";
  json.Key("mixed_sweep").BeginArray();
  const double mixes[][2] = {{0.1, 0.1}, {0.3, 0.25}, {0.5, 0.5}, {0.7, 0.5}};
  for (size_t i = 0; i < 4; ++i) {
    std::cerr << " " << mixes[i][0] << "/" << mixes[i][1] << std::flush;
    LevelSummary s = RunLevel(opt, *wl, mixes[i][0], mixes[i][1],
                              200 + static_cast<uint64_t>(i));
    internal_errors += s.internal_errors;
    WriteLevel(json, opt, s);
  }
  json.EndArray();
  std::cerr << "\n";

  // Optional campaign: collusion washout sweep (only with --collusion >= 2,
  // so default reports stay byte-identical to earlier versions).
  if (opt.collusion >= 2) {
    std::cerr << "collusion sweep";
    internal_errors += RunCollusionSweep(opt, *wl, json);
    std::cerr << "\n";
  }

  // Campaign 4: codec x composed-adversary severity grid.
  internal_errors += RunCodecGrid(opt, *wl, json);
  json.Key("internal_errors").UInt(internal_errors);
  json.EndObject();

  if (!opt.out.empty()) {
    if (!WriteJsonFile(opt.out, json)) {
      std::cerr << "cannot write " << opt.out << "\n";
      return 2;
    }
    std::cerr << "wrote " << opt.out << "\n";
  } else {
    std::cout << json.str() << "\n";
  }
  if (internal_errors > 0) {
    std::cerr << "FAIL: " << internal_errors
              << " trial(s) hit an internal detection error\n";
    return 1;
  }
  return 0;
}

int Usage(int code) {
  std::cerr << "usage: qpwm_faultgen [--elements N] [--redundancy R]\n"
               "       [--trials T] [--seed S] [--threads N] [--codec C]\n"
               "       [--collusion C] [--out report.json]\n"
               "codecs: "
            << KnownCodecSpecs()
            << "; --codec restricts the codec grid,\n"
               "grid labels also accept hamming:flat (no interleaving).\n"
               "--collusion C adds a coalition sweep (sizes 2..C, every\n"
               "registered collusion attack) to the report.\n";
  return code;
}

// Strict unsigned parse: the whole value must be a decimal number.
bool ParseU64(const std::string& value, uint64_t& out) {
  if (value.empty()) return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(value.c_str(), &end, 10);
  return errno == 0 && end != nullptr && *end == '\0' && value[0] != '-';
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  // Flags come in "--name value" pairs; a flag without a value, an unknown
  // flag, or a non-numeric value is a usage error (exit 2), never UB.
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") return Usage(0);
    if (i + 1 >= argc) {
      std::cerr << flag << " requires a value\n";
      return Usage(2);
    }
    const std::string value = argv[i + 1];
    uint64_t parsed = 0;
    if (flag == "--out") {
      opt.out = value;
      continue;
    }
    if (flag == "--codec") {
      bool known = value == "hamming:flat";
      for (const GridCodec& entry : kGridCodecs) {
        known |= value == entry.label || value == entry.spec;
      }
      if (!known) {
        std::cerr << "unknown codec '" << value << "'\n";
        return Usage(2);
      }
      opt.codec = value;
      continue;
    }
    if (!ParseU64(value, parsed)) {
      std::cerr << flag << " needs an unsigned integer, got '" << value << "'\n";
      return Usage(2);
    }
    if (flag == "--elements") {
      opt.elements = parsed;
    } else if (flag == "--redundancy") {
      opt.redundancy = parsed;
    } else if (flag == "--trials") {
      opt.trials = parsed;
    } else if (flag == "--seed") {
      opt.seed = parsed;
    } else if (flag == "--threads") {
      opt.threads = parsed;
    } else if (flag == "--collusion") {
      opt.collusion = parsed;
    } else {
      std::cerr << "unknown flag " << flag << "\n";
      return Usage(2);
    }
  }
  if (opt.elements == 0 || opt.redundancy == 0 || opt.trials == 0) {
    std::cerr << "--elements, --redundancy and --trials must be positive\n";
    return 2;
  }
  SetParallelThreads(opt.threads);
  return Run(opt);
}
