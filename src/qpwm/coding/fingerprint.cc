#include "qpwm/coding/fingerprint.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "qpwm/coding/trace_lanes.h"
#include "qpwm/util/check.h"
#include "qpwm/util/parallel.h"

namespace qpwm {

namespace {

constexpr uint64_t kBiasPurpose = 0x7461726430626961ULL;  // "tard0bia"
constexpr uint64_t kWordPurpose = 0x7461726430776f64ULL;  // "tard0wod"

constexpr double kInf = std::numeric_limits<double>::infinity();

double ResolveCutoff(const TardosOptions& opts) {
  if (opts.bias_cutoff > 0) return opts.bias_cutoff;
  const double c = static_cast<double>(std::max<size_t>(opts.design_c, 1));
  return 1.0 / (50.0 * c);
}

/// Bernstein tail of the innocent null at score s: an innocent score is a sum
/// of independent zero-mean terms with total variance V and per-term bound M,
/// so P(S >= s) <= exp(-s^2 / (2 (V + M s / 3))).
double NullTailLog10(double score, double variance, double max_term) {
  if (score <= 0) return 0;
  const double denom = 2.0 * (variance + max_term * score / 3.0);
  if (denom <= 0) return -kInf;
  return -(score * score / denom) / std::log(10.0);
}

struct ScanBlock {
  std::vector<Accusation> accused;
  std::vector<Accusation> top;
  uint64_t pruned = 0;
};

bool AccusationBefore(const Accusation& a, const Accusation& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.recipient < b.recipient;
}

/// Candidates per lane-scan call: scores and survival flags of one chunk
/// live on the stack of the block that scans it.
constexpr size_t kScanChunk = 256;

// One build of the lane scan per target: an AVX2 clone and the baseline,
// picked once at load time on x86-64; a single portable build elsewhere.
// Thread-sanitizer builds also get the single build: target_clones
// dispatches through an ifunc resolver, and an instrumented resolver runs
// before the TSan runtime is up and crashes the process at load.
#if defined(__SANITIZE_THREAD__)
#define QPWM_TRACE_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define QPWM_TRACE_TSAN 1
#endif
#endif
#if defined(__x86_64__) && defined(__GNUC__) && !defined(QPWM_TRACE_TSAN)
__attribute__((target_clones("avx2", "default")))
#endif
void ScanLanes(const TardosCode& code,
               const std::vector<trace_lanes::Position>& table,
               double prune_below, uint64_t begin, uint64_t end, double* score,
               bool* alive) {
  trace_lanes::ScanRange(code, table, prune_below, begin, end, score, alive);
}

/// Keeps `top` as the best `k` entries seen, sorted by AccusationBefore.
void InsertTopK(std::vector<Accusation>& top, const Accusation& a, size_t k) {
  if (k == 0) return;
  if (top.size() == k && !AccusationBefore(a, top.back())) return;
  top.insert(std::upper_bound(top.begin(), top.end(), a, AccusationBefore), a);
  if (top.size() > k) top.pop_back();
}

}  // namespace

TardosCode::TardosCode(size_t length, const TardosOptions& options)
    : opts_(options), cutoff_(ResolveCutoff(options)) {
  QPWM_CHECK(cutoff_ > 0 && cutoff_ < 0.5);
  const PrfKey root{opts_.seed, opts_.seed ^ 0x9E3779B97F4A7C15ULL};
  word_key_ = root.Derive(kWordPurpose);
  // Tardos bias density: p = sin^2(r) with r uniform over [t', pi/2 - t'],
  // t' = arcsin(sqrt(t)) — the arcsine density restricted to [t, 1 - t].
  Rng rng(Prf(root.Derive(kBiasPurpose), std::vector<uint64_t>{length}));
  const double t_prime = std::asin(std::sqrt(cutoff_));
  const double span = std::asin(1.0) - 2.0 * t_prime;  // pi/2 - 2 t'
  QPWM_CHECK(span > 0);
  biases_.reserve(length);
  g_one_.reserve(length);
  g_zero_.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    const double r = t_prime + rng.NextDouble() * span;
    const double s = std::sin(r);
    const double p = std::min(1.0 - cutoff_, std::max(cutoff_, s * s));
    biases_.push_back(p);
    g_one_.push_back(std::sqrt((1.0 - p) / p));
    g_zero_.push_back(std::sqrt(p / (1.0 - p)));
  }
}

TardosCode::Stream TardosCode::StreamOf(uint64_t recipient) const {
  return Stream(Rng(Prf(word_key_, std::vector<uint64_t>{recipient})), this);
}

BitVec TardosCode::CodewordOf(uint64_t recipient) const {
  BitVec word(length());
  Stream stream = StreamOf(recipient);
  for (size_t i = 0; i < length(); ++i) word.Set(i, stream.NextBit());
  return word;
}

const char* TraceVerdictKindName(TraceVerdictKind kind) {
  switch (kind) {
    case TraceVerdictKind::kTraced:
      return "TRACED";
    case TraceVerdictKind::kNoMark:
      return "NO MARK";
    case TraceVerdictKind::kUntraceable:
      return "UNTRACEABLE";
  }
  return "UNKNOWN";
}

FingerprintedWatermark::FingerprintedWatermark(const CodedWatermark& watermark,
                                               const TardosOptions& options)
    : wm_(&watermark), code_(watermark.PayloadBits(), options) {
  QPWM_CHECK_GT(code_.length(), 0u);
}

WeightMap FingerprintedWatermark::EmbedFor(const WeightMap& original,
                                           uint64_t recipient) const {
  return wm_->Embed(original, code_.CodewordOf(recipient));
}

Result<FingerprintObservation> FingerprintedWatermark::Observe(
    const WeightMap& original, const AnswerServer& suspect) const {
  Result<CodedDetection> detected = wm_->Detect(original, suspect);
  QPWM_RETURN_NOT_OK(detected.status());
  FingerprintObservation obs;
  obs.channel = std::move(detected).value();
  const size_t n = code_.length();
  QPWM_CHECK_EQ(obs.channel.message.payload.size(), n);
  obs.score_if_one.assign(n, 0.0);
  obs.score_if_zero.assign(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    if (obs.channel.message.bit_erased[i]) continue;
    const double w = obs.channel.message.confidences[i];
    if (w <= 0) continue;  // the decoder abstained: no evidence either way
    // Symmetric Tardos score (Škorić): seeing payload bit y at bias p
    // credits a candidate that agrees and debits one that disagrees, scaled
    // so an innocent (bias-distributed, independent) candidate contributes
    // mean 0 and variance 1 per unit of weight.
    const double s1 = code_.g_one(i);
    const double s0 = code_.g_zero(i);
    if (obs.channel.message.payload.Get(i)) {
      obs.score_if_one[i] = w * s1;
      obs.score_if_zero[i] = -w * s0;
    } else {
      obs.score_if_one[i] = -w * s1;
      obs.score_if_zero[i] = w * s0;
    }
    obs.null_variance += w * w;
    obs.max_term = std::max(obs.max_term, w * std::max(s1, s0));
    ++obs.positions_scored;
  }
  return obs;
}

double FingerprintedWatermark::Score(const FingerprintObservation& obs,
                                     uint64_t recipient) const {
  QPWM_CHECK_EQ(obs.score_if_one.size(), code_.length());
  TardosCode::Stream stream = code_.StreamOf(recipient);
  double score = 0;
  for (size_t i = 0; i < code_.length(); ++i) {
    score += stream.NextBit() ? obs.score_if_one[i] : obs.score_if_zero[i];
  }
  return score;
}

double FingerprintedWatermark::AccusationThreshold(
    const FingerprintObservation& obs, uint64_t candidates) const {
  QPWM_CHECK_GT(candidates, 0u);
  if (obs.null_variance <= 0) return kInf;
  // Bonferroni over the candidate pool: each innocent may contribute at most
  // fp_threshold / candidates, i.e. its Bernstein tail must stay below
  // exp(-lambda). Inverting the tail gives the score threshold.
  const double lambda = std::log(static_cast<double>(candidates) /
                                 code_.options().fp_threshold);
  const double a = lambda * obs.max_term / 3.0;
  return a + std::sqrt(a * a + 2.0 * obs.null_variance * lambda);
}

TraceResult FingerprintedWatermark::TraceMany(const FingerprintObservation& obs,
                                              uint64_t candidates,
                                              const TraceOptions& options) const {
  QPWM_CHECK_GT(candidates, 0u);
  const size_t n = code_.length();
  QPWM_CHECK_EQ(obs.score_if_one.size(), n);

  TraceResult result;
  result.candidates = candidates;
  result.fp_threshold = code_.options().fp_threshold;
  result.null_variance = obs.null_variance;
  result.max_term = obs.max_term;
  result.threshold = AccusationThreshold(obs, candidates);

  // Best achievable score and its per-position suffix sums: the pruning
  // oracle. suffix[i] bounds what positions i.. can still add (>= 0, since a
  // codeword could in principle dodge every negative term).
  std::vector<double> suffix(n + 1, 0.0);
  for (size_t i = n; i-- > 0;) {
    suffix[i] = suffix[i + 1] +
                std::max(0.0, std::max(obs.score_if_one[i], obs.score_if_zero[i]));
  }
  result.max_achievable = suffix[0];

  const bool hopeless =
      obs.null_variance <= 0 || result.max_achievable < result.threshold;
  if (hopeless) {
    // No codeword can clear the bound: answer in O(L) without scanning.
    result.pruned = candidates;
  } else {
    const double log10_n = std::log10(static_cast<double>(candidates));
    const double prune_below =
        options.prune ? options.prune_frac * result.threshold : -kInf;
    const std::vector<trace_lanes::Position> table =
        trace_lanes::BuildTable(code_, obs, suffix);
    // Each block scans its own candidate range; per-candidate arithmetic is
    // a serial left-to-right sum, so results are independent of the block
    // partition and thread schedule. Blocks arrive in candidate order.
    std::vector<ScanBlock> blocks = ParallelBlocks<ScanBlock>(
        static_cast<size_t>(candidates), [&](size_t begin, size_t end) {
          ScanBlock block;
          double score[kScanChunk] = {};
          bool alive[kScanChunk] = {};
          for (size_t chunk = begin; chunk < end; chunk += kScanChunk) {
            const size_t chunk_end = std::min(end, chunk + kScanChunk);
            ScanLanes(code_, table, prune_below, chunk, chunk_end, score, alive);
            for (size_t j = chunk; j < chunk_end; ++j) {
              if (!alive[j - chunk]) {
                ++block.pruned;
                continue;
              }
              Accusation a;
              a.recipient = j;
              a.score = score[j - chunk];
              a.log10_fp = std::min(
                  0.0, log10_n + NullTailLog10(a.score, obs.null_variance,
                                               obs.max_term));
              if (a.score >= result.threshold) block.accused.push_back(a);
              InsertTopK(block.top, a, options.top_k);
            }
          }
          return block;
        });
    for (const ScanBlock& block : blocks) {
      result.pruned += block.pruned;
      result.accused.insert(result.accused.end(), block.accused.begin(),
                            block.accused.end());
      for (const Accusation& a : block.top) {
        InsertTopK(result.top, a, options.top_k);
      }
    }
    std::sort(result.accused.begin(), result.accused.end(), AccusationBefore);
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

}  // namespace qpwm
