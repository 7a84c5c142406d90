// Deterministic, seedable pseudo-random generation.
//
// Watermarking correctness depends on the marker and the detector replaying
// the *same* random choices from the owner's secret key, so all randomness in
// the library flows through this explicitly seeded generator — never through
// global or hardware entropy.
#ifndef QPWM_UTIL_RANDOM_H_
#define QPWM_UTIL_RANDOM_H_

#include <array>
#include <cstdint>
#include <vector>

#include "qpwm/util/check.h"

namespace qpwm {

/// SplitMix64 step; used for seeding and cheap stateless mixing.
inline uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// xoshiro256** PRNG. Deterministic given a seed; not cryptographic (the
/// keyed-PRF in hash.h covers the secrecy-sensitive selections).
class Rng {
 public:
  /// Seeds the full state from a single 64-bit seed via SplitMix64.
  explicit Rng(uint64_t seed) {
    uint64_t sm = seed;
    for (auto& word : state_) word = SplitMix64(sm);
  }

  /// Next raw 64-bit output.
  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  uint64_t Below(uint64_t bound) {
    QPWM_CHECK(bound > 0);
    // Rejection sampling to avoid modulo bias.
    const uint64_t threshold = -bound % bound;
    for (;;) {
      uint64_t r = Next();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t Uniform(int64_t lo, int64_t hi) {
    QPWM_CHECK(lo <= hi);
    return lo + static_cast<int64_t>(Below(static_cast<uint64_t>(hi - lo) + 1));
  }

  /// Uniform double in [0, 1).
  double NextDouble() { return (Next() >> 11) * 0x1.0p-53; }

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p) { return NextDouble() < p; }

  /// Fair coin.
  bool Coin() { return (Next() & 1) != 0; }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(Below(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Samples k distinct indices from [0, n) (k <= n), in random order.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  /// The current xoshiro256** state words s[0..3], for scans that step
  /// several generators in lockstep outside this class.
  std::array<uint64_t, 4> state() const {
    return {state_[0], state_[1], state_[2], state_[3]};
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  uint64_t state_[4];
};

}  // namespace qpwm

#endif  // QPWM_UTIL_RANDOM_H_
