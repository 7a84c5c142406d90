#include "qpwm/structure/typemap.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "qpwm/structure/isomorphism.h"
#include "qpwm/util/parallel.h"

namespace qpwm {
namespace {

/// Per-worker scratch for the cached TypeAll path: one neighborhood arena and
/// one fingerprint buffer set, pooled so blocks reuse warm instances.
struct TypeAllScratch {
  NeighborhoodScratch nb;
  CanonKeyScratch key;
};

}  // namespace

NeighborhoodTyper::NeighborhoodTyper(const Structure& g, uint32_t rho,
                                     CanonCache* cache)
    : rho_(rho), incidence_(g), cache_(cache) {}

std::string NeighborhoodTyper::Canon(const Tuple& c, NeighborhoodScratch& nb) const {
  const Neighborhood& full = ExtractNeighborhoodInto(incidence_, c, rho_, nb);
  return CanonicalForm(full.local, full.distinguished);
}

uint32_t NeighborhoodTyper::CachedId(const Tuple& c, NeighborhoodScratch& nb,
                                     CanonKeyScratch& key) const {
  GatherNeighborhood(incidence_, c, rho_, nb);
  const CanonFingerprint fp = NeighborhoodFingerprint128(
      nb.nb.global_ids.size(), incidence_.arities(), nb.rel_flat,
      nb.nb.distinguished, key);
  if (std::optional<uint32_t> id = cache_->Lookup(fp)) return *id;
  const Neighborhood& full = MaterializeNeighborhood(incidence_, nb);
  return cache_->Insert(fp, full.local, full.distinguished);
}

uint32_t NeighborhoodTyper::Intern(std::string canon, const Tuple& c) {
  auto [it, inserted] =
      canon_to_type_.emplace(std::move(canon), static_cast<uint32_t>(representatives_.size()));
  if (inserted) representatives_.push_back(c);
  return it->second;
}

uint32_t NeighborhoodTyper::InternCacheId(uint32_t cache_id, const Tuple& c) {
  auto it = cache_id_to_type_.find(cache_id);
  if (it != cache_id_to_type_.end()) return it->second;
  const uint32_t type = Intern(cache_->CanonicalOfId(cache_id), c);
  cache_id_to_type_.emplace(cache_id, type);
  return type;
}

std::vector<std::string> NeighborhoodTyper::SortedForms() const {
  std::vector<std::string> forms;
  forms.reserve(canon_to_type_.size());
  // qpwm-lint: allow(unordered-iter) -- sorted below
  for (const auto& entry : canon_to_type_) forms.push_back(entry.first);
  std::sort(forms.begin(), forms.end());
  return forms;
}

uint32_t NeighborhoodTyper::TypeOf(const Tuple& c) {
  if (cache_ == nullptr) return Intern(Canon(c, nb_scratch_), c);
  return InternCacheId(CachedId(c, nb_scratch_, key_scratch_), c);
}

std::vector<uint32_t> NeighborhoodTyper::TypeAll(const std::vector<Tuple>& tuples) {
  // Workers extract with pooled scratch — zero steady-state allocation per
  // tuple — and produce canonical strings (uncached) or interned cache ids.
  // The serial intern below maps them to dense type ids in input order (the
  // cache ids are discovery-ordered and nondeterministic), so the output
  // matches the serial TypeOf sequence bit-for-bit at any thread count.
  ScratchPool<TypeAllScratch> pool;
  std::vector<std::string> canons(cache_ == nullptr ? tuples.size() : 0);
  std::vector<uint32_t> cache_ids(cache_ == nullptr ? 0 : tuples.size());
  ParallelBlocks<int>(tuples.size(), [&](size_t begin, size_t end) {
    std::unique_ptr<TypeAllScratch> scratch = pool.Acquire();
    for (size_t i = begin; i < end; ++i) {
      if (cache_ == nullptr) {
        canons[i] = Canon(tuples[i], scratch->nb);
      } else {
        cache_ids[i] = CachedId(tuples[i], scratch->nb, scratch->key);
      }
    }
    pool.Release(std::move(scratch));
    return 0;
  });
  std::vector<uint32_t> types(tuples.size());
  if (cache_ == nullptr) {
    for (size_t i = 0; i < tuples.size(); ++i) {
      types[i] = Intern(std::move(canons[i]), tuples[i]);
    }
    return types;
  }
  for (size_t i = 0; i < tuples.size(); ++i) {
    types[i] = InternCacheId(cache_ids[i], tuples[i]);
  }
  return types;
}

}  // namespace qpwm
