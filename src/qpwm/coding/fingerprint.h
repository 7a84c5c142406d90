// Collusion-resistant fingerprinting: Tardos codes over the coded channel.
//
// The coded channel (coded_watermark.h) identifies *one* embedded payload.
// Distribution at scale means handing every recipient a distinct marked copy
// and, when a leak surfaces, naming at least one leaker — even when a
// coalition of c recipients pools its copies and splices an untraceable-
// looking hybrid (averaging, median, min/max, segment interleaving; see
// CollusionAttack in core/attack.h). Probabilistic fingerprint codes are the
// standard answer: Tardos's construction draws a secret bias p_i per code
// position and gives recipient j the codeword X_j with X_{j,i} ~
// Bernoulli(p_i), all deterministically from one 64-bit seed.
//
// Accusation is soft-decision and one-pass: the suspect is observed *once*
// through the existing CodedWatermark path, and the decoded payload is
// flattened into per-position score arrays (the symmetric Tardos score of
// Škorić et al., weighted by the decoder's per-bit confidence; erased or
// abstained positions contribute nothing). Scoring a candidate is then a
// single O(L) scan over flat arrays — TraceMany over 10^5..10^6 candidate
// codewords is one channel observation plus an O(candidates x L) parallel
// scan with sound score pruning, not 10^5 detections.
//
// Robustness contract ("never a wrong accusation"): a candidate is accused
// only when its score clears a threshold derived from a Bernstein bound on
// the null model (an innocent codeword is independent of the observed
// payload, so its score is a zero-mean sum of bounded independent terms),
// Bonferroni-corrected over all candidates. The resulting false-accusation
// probability is reported as log10_fp, like DetectionVerdict. When erasures
// or an over-design-c coalition destroy the margin, the accused set comes
// back empty and the verdict degrades to UNTRACEABLE (or NO MARK when the
// channel itself shows no evidence) — the scheme abstains, it never guesses.
#ifndef QPWM_CODING_FINGERPRINT_H_
#define QPWM_CODING_FINGERPRINT_H_

#include <cstdint>
#include <vector>

#include "qpwm/coding/coded_watermark.h"
#include "qpwm/util/bitvec.h"
#include "qpwm/util/hash.h"
#include "qpwm/util/random.h"
#include "qpwm/util/status.h"

namespace qpwm {

/// Parameters of a Tardos fingerprint code. Everything is deterministic in
/// `seed`; the seed is the owner's secret (codewords are derived through the
/// keyed PRF, so one leaked codeword reveals nothing about the others).
struct TardosOptions {
  /// Coalition size the accusation bound is provisioned against. Larger
  /// coalitions can still be traced when the evidence happens to suffice,
  /// but only design_c is guaranteed by the code-length calculus.
  size_t design_c = 5;
  /// Bias cutoff t: biases are drawn from the arcsine density restricted to
  /// [t, 1-t]. 0 selects 1 / (50 * design_c) — the soft-decision symmetric
  /// score tolerates a milder cutoff than Tardos's original 1/(300c), which
  /// shrinks the bounded-term constant in the Bernstein threshold.
  double bias_cutoff = 0;
  /// Secret seed the bias vector and every codeword derive from.
  uint64_t seed = 1;
  /// Total false-accusation budget of one trace: the probability that *any*
  /// innocent candidate is accused is bounded by this.
  double fp_threshold = 1e-6;
};

/// A seeded Tardos code of fixed length: the secret bias vector plus a
/// deterministic per-recipient codeword generator with O(1) state.
class TardosCode {
 public:
  TardosCode(size_t length, const TardosOptions& options);

  size_t length() const { return biases_.size(); }
  const TardosOptions& options() const { return opts_; }
  /// The resolved bias cutoff t (biases lie in [t, 1-t]).
  double cutoff() const { return cutoff_; }
  double bias(size_t i) const { return biases_[i]; }
  /// Symmetric-score generators for position i: g1 = sqrt((1-p)/p) is the
  /// magnitude credited when a candidate bit 1 meets an observed 1 (and
  /// debited when it meets a 0); g0 = sqrt(p/(1-p)) is the bit-0 twin.
  double g_one(size_t i) const { return g_one_[i]; }
  double g_zero(size_t i) const { return g_zero_[i]; }

  /// Sequential codeword bits of one recipient; draws exactly one PRNG step
  /// per position, so early-exiting scans stay aligned with CodewordOf.
  class Stream {
   public:
    bool NextBit() { return rng_.NextDouble() < code_->biases_[pos_++]; }
    /// The generator behind the stream (read-only).
    const Rng& rng() const { return rng_; }

   private:
    friend class TardosCode;
    Stream(Rng rng, const TardosCode* code) : rng_(rng), code_(code) {}
    Rng rng_;
    const TardosCode* code_;
    size_t pos_ = 0;
  };

  Stream StreamOf(uint64_t recipient) const;
  /// The full codeword of `recipient` (bit i = position i).
  BitVec CodewordOf(uint64_t recipient) const;

 private:
  TardosOptions opts_;
  double cutoff_ = 0;
  PrfKey word_key_;
  std::vector<double> biases_;
  std::vector<double> g_one_;
  std::vector<double> g_zero_;
};

/// One channel observation of a suspect, pre-folded for candidate scans.
/// Built once per trace; every candidate score reads only the two flat
/// arrays, never the channel again.
struct FingerprintObservation {
  /// The full coded report of the single Detect run (channel votes, decoded
  /// payload, verdict) — nothing the observation is derived from is hidden.
  CodedDetection channel;
  /// Per code position: the score contribution of a candidate whose bit is
  /// 1 (resp. 0) at that position — the symmetric Tardos generator for the
  /// observed payload bit, weighted by the decoder's confidence. Erased and
  /// abstained (confidence-0) positions hold 0 in both arrays.
  std::vector<double> score_if_one;
  std::vector<double> score_if_zero;
  /// Null model of an innocent candidate's score: variance V = sum of
  /// squared position weights, and M = the largest single bounded term.
  double null_variance = 0;
  double max_term = 0;
  /// Positions that carry any scoring weight (non-erased, non-abstained).
  size_t positions_scored = 0;
};

/// Trace verdicts; values mirror the coded-channel CLI exit codes.
enum class TraceVerdictKind {
  kTraced = 0,       // at least one candidate accused under the fp bound
  kNoMark = 1,       // the channel itself shows no evidence of any mark
  kUntraceable = 3,  // marked or damaged, but no candidate clears the bound:
                     // erasures / over-design coalitions degrade here, never
                     // into a wrong accusation
};

const char* TraceVerdictKindName(TraceVerdictKind kind);

/// One accused (or top-scoring) candidate.
struct Accusation {
  uint64_t recipient = 0;
  double score = 0;
  /// log10 of the Bonferroni-corrected false-positive bound at this score
  /// (log10(candidates) + log10 of the Bernstein tail), capped at 0.
  double log10_fp = 0;
};

struct TraceOptions {
  /// Fully-scored candidates to report in TraceResult::top.
  size_t top_k = 8;
  /// Sound score pruning: a candidate whose running score plus the best
  /// possible remainder cannot reach prune_frac * threshold is abandoned
  /// mid-scan. Accusations are unaffected (the bound is conservative and
  /// prune_frac <= 1); `top` then only covers candidates that finished.
  bool prune = true;
  double prune_frac = 0.5;
};

/// Outcome of one TraceMany scan. Deterministic for a given observation and
/// candidate count: bit-identical for any thread count.
struct TraceResult {
  TraceVerdictKind kind = TraceVerdictKind::kUntraceable;
  /// Accusation score threshold Z (infinite when the observation carries no
  /// information) and the budget it was derived from.
  double threshold = 0;
  double fp_threshold = 0;
  /// Largest score any codeword could reach against this observation; when
  /// below `threshold` the scan is skipped outright (guaranteed
  /// untraceable).
  double max_achievable = 0;
  uint64_t candidates = 0;
  /// Candidates abandoned by score pruning (provably below
  /// prune_frac * threshold, hence never accusable).
  uint64_t pruned = 0;
  /// Accused candidates, score descending (ties: recipient ascending).
  /// Every entry clears `threshold`; innocents appear here with probability
  /// at most `fp_threshold` in total.
  std::vector<Accusation> accused;
  /// The top_k fully-scored candidates, same order — diagnostics only.
  std::vector<Accusation> top;
  /// Null-model parameters the threshold was computed from.
  double null_variance = 0;
  double max_term = 0;

  int ExitCode() const { return static_cast<int>(kind); }
};

/// Per-recipient fingerprinting layered over a CodedWatermark: the Tardos
/// codeword *is* the payload, so every codec/interleaver/soft-decoding
/// guarantee of the coded channel carries over per position. The wrapped
/// watermark must outlive this object.
class FingerprintedWatermark {
 public:
  FingerprintedWatermark(const CodedWatermark& watermark,
                         const TardosOptions& options = {});

  const TardosCode& code() const { return code_; }
  const CodedWatermark& watermark() const { return *wm_; }
  /// Code length L — one position per coded payload bit.
  size_t Positions() const { return code_.length(); }

  BitVec CodewordOf(uint64_t recipient) const {
    return code_.CodewordOf(recipient);
  }

  /// The marked copy handed to `recipient`.
  WeightMap EmbedFor(const WeightMap& original, uint64_t recipient) const;

  /// The one channel read of a trace: detect + decode through the coded
  /// path, then fold the soft payload into flat per-position score arrays.
  [[nodiscard]] Result<FingerprintObservation> Observe(
      const WeightMap& original, const AnswerServer& suspect) const;

  /// Exact (unpruned) score of one candidate against an observation.
  double Score(const FingerprintObservation& obs, uint64_t recipient) const;

  /// The score a candidate must reach to be accused, given `candidates`
  /// many of them share the fp budget. +infinity when the observation
  /// carries no information.
  double AccusationThreshold(const FingerprintObservation& obs,
                             uint64_t candidates) const;

  /// Scores candidates 0..candidates-1 against one observation: a parallel
  /// flat-array scan over the pool (QPWM_THREADS) that scores four
  /// candidates in lockstep (coding/trace_lanes.h), bit-identical to a
  /// serial one-candidate-at-a-time scan for any thread count. Accuses
  /// every candidate whose score clears AccusationThreshold; an empty
  /// accused set degrades the verdict instead of lowering the bar.
  TraceResult TraceMany(const FingerprintObservation& obs, uint64_t candidates,
                        const TraceOptions& options = {}) const;

 private:
  const CodedWatermark* wm_;
  TardosCode code_;
};

}  // namespace qpwm

#endif  // QPWM_CODING_FINGERPRINT_H_
