#include "qpwm/structure/canon_cache.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <span>
#include <vector>

#include "qpwm/structure/isomorphism.h"
#include "qpwm/util/hash.h"

namespace qpwm {
namespace {

constexpr int kRefineRounds = 2;

// A neighborhood's gathered records: universe {0..n-1}, relation r holding
// records[r] flat, arities[r] ids per record. Records may come in any order:
// every use below is commutative.
struct GatheredRecords {
  size_t n;
  const std::vector<uint32_t>& arities;
  const std::vector<std::vector<ElemId>>& records;
  size_t universe() const { return n; }
  size_t num_relations() const { return arities.size(); }
  uint32_t arity(size_t r) const { return arities[r]; }
  // Gathered records never hold a nullary tuple (it has no element to be
  // incident to).
  size_t count(size_t r) const { return arities[r] == 0 ? 0 : records[r].size() / arities[r]; }
  std::span<const ElemId> flat(size_t r) const { return records[r]; }
};

// Calls fn(record) for each record of relation r of `s`.
template <typename Fn>
void ForEachRecord(const GatheredRecords& s, size_t r, Fn&& fn) {
  const std::span<const ElemId> flat = s.flat(r);
  const uint32_t a = s.arity(r);
  const size_t count = s.count(r);
  for (size_t i = 0; i < count; ++i) fn(flat.subspan(i * a, a));
}

// Bounded (two-round) color refinement with commutative multiset hashing.
// Isomorphism-invariant per element; much cheaper than the stability-checked
// refinement inside CanonicalForm (no per-element sorts, no partition ranks,
// flat buffers only).
void RefineColors(const GatheredRecords& s, const Tuple& dist,
                  std::vector<uint64_t>& colors, std::vector<uint64_t>& scratch) {
  const size_t n = s.universe();
  colors.assign(n, 0x9E3779B97F4A7C15ULL);
  for (size_t i = 0; i < dist.size(); ++i) {
    colors[dist[i]] = HashCombine(colors[dist[i]], 0xD157 + i);
  }
  for (int round = 0; round < kRefineRounds; ++round) {
    scratch.assign(colors.begin(), colors.end());
    for (size_t r = 0; r < s.num_relations(); ++r) {
      ForEachRecord(s, r, [&](std::span<const ElemId> t) {
        uint64_t h = HashCombine(0xABCD, r);
        for (ElemId e : t) h = HashCombine(h, colors[e]);
        for (size_t pos = 0; pos < t.size(); ++pos) {
          // Additive accumulation keeps the per-element contribution a
          // multiset invariant without sorting.
          scratch[t[pos]] += HashCombine(h, pos + 1);
        }
      });
    }
    colors.swap(scratch);
  }
}

// Refinement relabeling: rank elements by (refined color, input id). When the
// colors are all distinct the input id never breaks a tie and the relabeling
// is canonical.
void RefinementRanks(const GatheredRecords& s, const Tuple& dist, CanonKeyScratch& sc) {
  RefineColors(s, dist, sc.colors, sc.tmp);
  const size_t n = s.universe();
  sc.order.resize(n);
  std::iota(sc.order.begin(), sc.order.end(), 0u);
  std::sort(sc.order.begin(), sc.order.end(), [&sc](ElemId a, ElemId b) {
    return sc.colors[a] != sc.colors[b] ? sc.colors[a] < sc.colors[b] : a < b;
  });
  sc.rank.resize(n);
  for (size_t i = 0; i < n; ++i) sc.rank[sc.order[i]] = static_cast<uint32_t>(i);
}

}  // namespace

CanonFingerprint NeighborhoodFingerprint128(
    size_t universe_size, const std::vector<uint32_t>& arities,
    const std::vector<std::vector<ElemId>>& records, const Tuple& distinguished,
    CanonKeyScratch& scratch) {
  const GatheredRecords s{universe_size, arities, records};
  RefinementRanks(s, distinguished, scratch);

  // Two streams with distinct seeds; the second additionally perturbs every
  // input word so the streams never collapse to one function of the other.
  uint64_t lo = 0x51AB0FF1CE0ULL;
  uint64_t hi = 0xC0DEC0FFEE1ULL;
  auto mix = [&lo, &hi](uint64_t v) {
    lo = HashCombine(lo, v);
    hi = HashCombine(hi, v ^ 0xA5A5A5A5A5A5A5A5ULL);
  };
  mix(s.universe());
  mix(distinguished.size());
  for (ElemId e : distinguished) mix(scratch.rank[e]);
  mix(s.num_relations());
  for (size_t r = 0; r < s.num_relations(); ++r) {
    // Per-relation commutative accumulation: each record hashes on its own,
    // the sums are order-insensitive — no record sort, yet records still
    // compare as whole tuples.
    uint64_t sum_lo = 0;
    uint64_t sum_hi = 0;
    ForEachRecord(s, r, [&](std::span<const ElemId> t) {
      uint64_t h = HashCombine(0x7EC0DE, r);
      for (ElemId e : t) h = HashCombine(h, scratch.rank[e]);
      sum_lo += h;
      sum_hi += HashCombine(h, 0x5EED);
    });
    mix(s.arity(r));
    mix(s.count(r));
    lo = HashCombine(lo, sum_lo);
    hi = HashCombine(hi, sum_hi);
  }
  return {lo, hi};
}

CanonCache& CanonCache::Global() {
  static CanonCache* cache = new CanonCache();  // shared with pool workers; leaked
  return *cache;
}

uint32_t CanonCache::InternForm(std::string canon) {
  qpwm::MutexLock lock(intern_mu_);
  auto [it, inserted] =
      form_ids_.emplace(std::move(canon), static_cast<uint32_t>(form_by_id_.size()));
  if (inserted) form_by_id_.push_back(&it->first);
  return it->second;
}

std::optional<uint32_t> CanonCache::Lookup(const CanonFingerprint& fp) {
  Shard& shard = shards_[fp.hi % kShards];
  qpwm::MutexLock lock(shard.mu);
  auto it = shard.map.find(fp);
  if (it == shard.map.end()) return std::nullopt;
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second;
}

uint32_t CanonCache::Insert(const CanonFingerprint& fp, const Structure& s,
                            const Tuple& distinguished) {
  misses_.fetch_add(1, std::memory_order_relaxed);
  // Canonicalize outside the lock: concurrent misses on the same fingerprint
  // both compute (identical) forms and intern to the same id; emplace keeps
  // the first fingerprint entry.
  const uint32_t id = InternForm(CanonicalForm(s, distinguished));
  Shard& shard = shards_[fp.hi % kShards];
  qpwm::MutexLock lock(shard.mu);
  shard.map.emplace(fp, id);
  return id;
}

std::string CanonCache::CanonicalOfId(uint32_t id) const {
  qpwm::MutexLock lock(intern_mu_);
  QPWM_CHECK_LT(id, form_by_id_.size());
  return *form_by_id_[id];
}

CanonCache::Stats CanonCache::stats() const {
  Stats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  for (const Shard& shard : shards_) {
    qpwm::MutexLock lock(shard.mu);
    const uint64_t n = shard.map.size();
    out.entries += n;
    out.shard_max = std::max(out.shard_max, n);
    // Unordered-map heap estimate: one bucket pointer per bucket plus one
    // node (payload + next pointer) per entry.
    out.bytes_resident +=
        shard.map.bucket_count() * sizeof(void*) +
        n * (sizeof(CanonFingerprint) + sizeof(uint32_t) + 2 * sizeof(void*));
  }
  out.shard_mean = static_cast<double>(out.entries) / static_cast<double>(kShards);
  {
    qpwm::MutexLock lock(intern_mu_);
    out.distinct_forms = form_by_id_.size();
    out.bytes_resident += form_by_id_.capacity() * sizeof(void*);
    // qpwm-lint: allow(unordered-iter) -- commutative byte-count sum
    for (const auto& [form, id] : form_ids_) {
      (void)id;
      out.bytes_resident += form.capacity() + sizeof(uint32_t) + 3 * sizeof(void*);
    }
  }
  return out;
}

void CanonCache::Clear() {
  for (Shard& shard : shards_) {
    qpwm::MutexLock lock(shard.mu);
    shard.map.clear();
  }
  {
    qpwm::MutexLock lock(intern_mu_);
    form_by_id_.clear();
    form_ids_.clear();
  }
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
}

size_t CanonCache::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    qpwm::MutexLock lock(shard.mu);
    total += shard.map.size();
  }
  return total;
}

}  // namespace qpwm
