// Memoized canonical forms. Planning canonicalizes one rho-neighborhood per
// parameter tuple, and on bounded-degree structures those neighborhoods are
// tiny and highly repetitive (ntp distinct types over |domain| tuples, with
// ntp << |domain|), so almost every CanonicalForm call recomputes a result
// already seen.
//
// Fast path: probes key on a 128-bit fingerprint of the neighborhood under a
// cheap color-refinement relabeling — two independent 64-bit hash streams
// over the relabeled, order-insensitive relation contents. A hit returns an
// interned id without materializing any string. Equal fingerprints are
// *assumed* to mean isomorphic inputs; with 128 independent bits the
// collision odds over even 10^9 distinct neighborhoods are ~2^-68 —
// accepted, and documented here because it is the one place the cache trades
// certainty for speed.
//
// Identity: ids come from an intern table keyed by the *true* canonical form
// computed on each miss, so two inputs whose refinement stalls into
// different fingerprints but equal canonical forms still unify to one id —
// fingerprint-distinct misses cost a recompute, never a wrong split.
//
// Buckets are sharded under striped mutexes so concurrent typing (see
// util/parallel.h) shares work; the expensive canonicalization itself runs
// outside any lock. CanonicalIds are assigned in discovery order and are NOT
// deterministic across runs or thread counts — consumers must re-intern them
// in their own deterministic order (NeighborhoodTyper does).
#ifndef QPWM_STRUCTURE_CANON_CACHE_H_
#define QPWM_STRUCTURE_CANON_CACHE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "qpwm/structure/structure.h"
#include "qpwm/util/thread_annotations.h"

namespace qpwm {

/// Reusable buffers for fingerprint computation (one per worker; see
/// util/parallel.h ScratchPool). Zero steady-state allocation.
struct CanonKeyScratch {
  std::vector<uint64_t> colors;
  std::vector<uint64_t> tmp;
  std::vector<ElemId> order;
  std::vector<uint32_t> rank;
};

/// 128-bit neighborhood fingerprint: two independent hash streams over the
/// color-refinement-relabeled structure, order-insensitive per relation.
struct CanonFingerprint {
  uint64_t lo = 0;
  uint64_t hi = 0;
  friend bool operator==(const CanonFingerprint& a, const CanonFingerprint& b) {
    return a.lo == b.lo && a.hi == b.hi;
  }
};

struct CanonFingerprintHash {
  size_t operator()(const CanonFingerprint& f) const {
    return static_cast<size_t>(HashCombine(f.lo, f.hi));
  }
};

/// Fingerprint of a neighborhood read from its gathered records: universe
/// {0..universe_size-1}, relation r holding records[r] (flat, arities[r] ids
/// per record, in any order, no nullary tuples). The hash is
/// order-insensitive per relation, so it equals the fingerprint of the
/// structure those records form, and a neighborhood is fingerprinted before,
/// and on a cache hit instead of, building its local structure.
/// Allocation-free once `scratch` is warm.
CanonFingerprint NeighborhoodFingerprint128(
    size_t universe_size, const std::vector<uint32_t>& arities,
    const std::vector<std::vector<ElemId>>& records, const Tuple& distinguished,
    CanonKeyScratch& scratch);

class CanonCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    /// Fingerprint entries across shards / distinct interned canonical forms.
    uint64_t entries = 0;
    uint64_t distinct_forms = 0;
    /// Approximate heap bytes held: shard tables + interned form strings.
    uint64_t bytes_resident = 0;
    /// Shard occupancy spread (entries in the fullest shard / mean entries
    /// per shard) — imbalance here means the fingerprint is routing badly.
    uint64_t shard_max = 0;
    double shard_mean = 0.0;
    double HitRate() const {
      const uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
    }
  };

  /// Process-wide cache shared by all typers/planners.
  static CanonCache& Global();

  /// Interned id of a neighborhood's canonical form, split at the
  /// fingerprint so callers fingerprint before they build the structure.
  /// Thread-safe. Lookup returns the id interned under `fp` and counts a hit,
  /// or returns nullopt. Insert canonicalizes `s` — whose fingerprint must be
  /// `fp` — outside any lock, counts a miss and records the id. Ids are
  /// stable until Clear(): callers must not hold ids across a Clear().
  std::optional<uint32_t> Lookup(const CanonFingerprint& fp);
  uint32_t Insert(const CanonFingerprint& fp, const Structure& s,
                  const Tuple& distinguished);

  /// The canonical form interned under `id` (copy; the table may rehash).
  std::string CanonicalOfId(uint32_t id) const;

  Stats stats() const;

  /// Drops every entry and resets the stats (benchmark hygiene).
  void Clear();

  size_t size() const;

 private:
  static constexpr size_t kShards = 64;
  struct Shard {
    mutable qpwm::Mutex mu;
    std::unordered_map<CanonFingerprint, uint32_t, CanonFingerprintHash> map
        QPWM_GUARDED_BY(mu);
  };

  /// Id of `canon` in the intern table, inserting if new.
  uint32_t InternForm(std::string canon);

  std::array<Shard, kShards> shards_;
  mutable qpwm::Mutex intern_mu_;
  std::unordered_map<std::string, uint32_t> form_ids_ QPWM_GUARDED_BY(intern_mu_);
  // points at form_ids_ keys
  std::vector<const std::string*> form_by_id_ QPWM_GUARDED_BY(intern_mu_);
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

}  // namespace qpwm

#endif  // QPWM_STRUCTURE_CANON_CACHE_H_
