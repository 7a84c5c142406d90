// Lane kernel of the Tardos trace scan (FingerprintedWatermark::TraceMany).
//
// Internal header. The scan scores four candidates in lockstep: their
// xoshiro256** streams advance together as GCC/Clang vector-extension
// values, each codeword bit is decided by an integer compare against a
// per-position threshold computed once per trace, the per-position score
// term is picked without a branch, and a lane is marked dead by the pruning
// test `score + suffix[i+1] < prune_below`, unrearranged. Dead lanes keep
// stepping, so every surviving candidate's score is the same left-to-right
// sum of the same doubles as a one-candidate-at-a-time scan, bit for bit.
//
// fingerprint.cc compiles ScanRange once per target (target_clones on
// x86-64, outside thread-sanitizer builds); the oracle test in
// tests/fingerprint_test.cc compiles the same body for the baseline target,
// so both clones are checked against the scalar reference scan.
#ifndef QPWM_CODING_TRACE_LANES_H_
#define QPWM_CODING_TRACE_LANES_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "qpwm/coding/fingerprint.h"

#if defined(__GNUC__)
#define QPWM_LANES_INLINE inline __attribute__((always_inline))
#else
#define QPWM_LANES_INLINE inline
#endif

namespace qpwm {
namespace trace_lanes {

constexpr size_t kLanes = 4;
constexpr size_t kExitStride = 8;

/// One code position as the lane scan reads it.
struct Position {
  /// Least integer k with k * 2^-53 >= p_i. A stream's bit is 1 exactly when
  /// its 53-bit draw m = x >> 11 is below k: m * 2^-53 and p_i * 2^53 are
  /// exact, so m < k <=> m * 2^-53 < p_i <=> Rng::NextDouble() < p_i.
  uint64_t bit_below = 0;
  /// score_if_one[i] and score_if_zero[i], as IEEE bit patterns.
  uint64_t if_one = 0;
  uint64_t if_zero = 0;
  /// suffix[i + 1]: the best score positions after i can still add.
  double suffix_next = 0;
};

/// Builds the per-trace position table. `suffix` holds L + 1 entries.
inline std::vector<Position> BuildTable(const TardosCode& code,
                                        const FingerprintObservation& obs,
                                        const std::vector<double>& suffix) {
  std::vector<Position> table(code.length());
  for (size_t i = 0; i < table.size(); ++i) {
    table[i].bit_below = static_cast<uint64_t>(std::ceil(code.bias(i) * 0x1.0p53));
    table[i].if_one = std::bit_cast<uint64_t>(obs.score_if_one[i]);
    table[i].if_zero = std::bit_cast<uint64_t>(obs.score_if_zero[i]);
    table[i].suffix_next = suffix[i + 1];
  }
  return table;
}

typedef uint64_t U64x4 __attribute__((vector_size(32)));
typedef double F64x4 __attribute__((vector_size(32)));

/// Scans candidates [begin, end) over the whole table, four at a time.
/// Candidate begin + k gets score[k] (its full score when it survives) and
/// alive[k] (false when the scalar scan would have abandoned it, i.e. some
/// prefix score plus the remaining best case fell below `prune_below`).
QPWM_LANES_INLINE void ScanRange(const TardosCode& code,
                                 const std::vector<Position>& table,
                                 double prune_below, uint64_t begin,
                                 uint64_t end, double* score, bool* alive) {
  const Position* const pos = table.data();
  const size_t n = table.size();
  const F64x4 prune = {prune_below, prune_below, prune_below, prune_below};
  for (uint64_t group = begin; group < end; group += kLanes) {
    const size_t lanes = static_cast<size_t>(std::min<uint64_t>(kLanes, end - group));
    // Lane k holds candidate group + k's xoshiro256** state words s0..s3.
    // Padding lanes past `end` start dead.
    U64x4 s0 = {}, s1 = {}, s2 = {}, s3 = {};
    U64x4 dead = {~uint64_t{0}, ~uint64_t{0}, ~uint64_t{0}, ~uint64_t{0}};
    for (size_t lane = 0; lane < lanes; ++lane) {
      const std::array<uint64_t, 4> st = code.StreamOf(group + lane).rng().state();
      s0[lane] = st[0];
      s1[lane] = st[1];
      s2[lane] = st[2];
      s3[lane] = st[3];
      dead[lane] = 0;
    }
    F64x4 acc = {0.0, 0.0, 0.0, 0.0};

    // The all-dead exit is tested once per kExitStride positions: it only
    // decides when the group stops, never what a surviving lane scores.
    for (size_t i = 0; i < n;) {
      for (const size_t stop = std::min(n, i + kExitStride); i < stop; ++i) {
        // xoshiro256**: result = rotl(s1 * 5, 7) * 9, then the state update.
        const U64x4 times5 = (s1 << 2) + s1;
        const U64x4 rot = (times5 << 7) | (times5 >> 57);
        const U64x4 x = (rot << 3) + rot;
        const U64x4 t = s1 << 17;
        s2 ^= s0;
        s3 ^= s1;
        s1 ^= s2;
        s0 ^= s3;
        s2 ^= t;
        s3 = (s3 << 45) | (s3 >> 19);

        // Bit = (x >> 11) < k. Both sides are at most 2^53, so the sign bit
        // of the difference is the compare; no 64-bit vector compare needed.
        const Position& p = pos[i];
        const U64x4 below = (x >> 11) - p.bit_below;
        const U64x4 one_mask = U64x4{} - (below >> 63);
        const U64x4 one = {p.if_one, p.if_one, p.if_one, p.if_one};
        const U64x4 zero = {p.if_zero, p.if_zero, p.if_zero, p.if_zero};
        const U64x4 term = (one & one_mask) | (zero & ~one_mask);
        acc += (F64x4)term;

        // The scalar scan's pruning test, unrearranged.
        const F64x4 best = {p.suffix_next, p.suffix_next, p.suffix_next,
                            p.suffix_next};
        dead |= (U64x4)(acc + best < prune);
      }
      if ((dead[0] & dead[1] & dead[2] & dead[3]) != 0) break;
    }

    for (size_t lane = 0; lane < lanes; ++lane) {
      score[group - begin + lane] = acc[lane];
      alive[group - begin + lane] = dead[lane] == 0;
    }
  }
}

}  // namespace trace_lanes
}  // namespace qpwm

#undef QPWM_LANES_INLINE

#endif  // QPWM_CODING_TRACE_LANES_H_
