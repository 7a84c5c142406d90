// Test-only reference neighborhood extraction: the sort-based extractor the
// library used before the inline-tuple incidence, kept as the oracle for
// ExtractNeighborhood / GatherNeighborhood. It takes the sphere from the
// Gaifman graph, collects (relation, tuple index) keys from the incidence
// index, sorts and deduplicates them, fetches every tuple from its source
// relation and maps each element through a binary search over the sphere.
// FingerprintOfStructure fingerprints such a reference result.
#ifndef QPWM_TESTS_REFERENCE_EXTRACTION_H_
#define QPWM_TESTS_REFERENCE_EXTRACTION_H_

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "qpwm/structure/canon_cache.h"
#include "qpwm/structure/gaifman.h"
#include "qpwm/structure/neighborhood.h"
#include "qpwm/structure/structure.h"

namespace qpwm {

// Local id of global element `x` in the sorted sphere, or the sphere size
// when x lies outside.
inline ElemId ReferenceLocalId(const std::vector<ElemId>& sphere, ElemId x) {
  auto it = std::lower_bound(sphere.begin(), sphere.end(), x);
  if (it == sphere.end() || *it != x) return static_cast<ElemId>(sphere.size());
  return static_cast<ElemId>(it - sphere.begin());
}

inline Neighborhood ReferenceExtractNeighborhood(const Structure& g,
                                                 const GaifmanGraph& gg,
                                                 const IncidenceIndex& idx,
                                                 const Tuple& c, uint32_t rho) {
  Neighborhood nb;
  std::vector<ElemId>& sphere = nb.global_ids;
  SphereScratch sphere_scratch;
  gg.SphereInto(c, rho, sphere_scratch, sphere);  // sorted ascending
  const ElemId outside = static_cast<ElemId>(sphere.size());
  nb.local = Structure(g.signature(), sphere.size());

  // Candidate tuples via the incidence lists of sphere members, deduplicated
  // by (relation, tuple index) with a sort. Distinct indices mean distinct
  // tuples (relations are deduplicated).
  std::vector<uint64_t> keys;
  for (ElemId e : sphere) {
    for (const IncidenceIndex::Entry& entry : idx.Incident(e)) {
      keys.push_back((static_cast<uint64_t>(entry.relation) << 32) | entry.tuple_index);
    }
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  std::vector<std::vector<ElemId>> rel_flat(g.num_relations());
  for (uint64_t key : keys) {
    const auto rel = static_cast<uint32_t>(key >> 32);
    const TupleRef t = g.relation(rel).tuple(static_cast<uint32_t>(key));
    std::vector<ElemId>& records = rel_flat[rel];
    const size_t mark = records.size();
    bool inside = true;
    for (ElemId x : t) {
      const ElemId lx = ReferenceLocalId(sphere, x);
      if (lx == outside) {
        inside = false;
        break;
      }
      records.push_back(lx);
    }
    if (!inside) records.resize(mark);
  }

  for (size_t r = 0; r < rel_flat.size(); ++r) {
    std::vector<ElemId>& records = rel_flat[r];
    const uint32_t a = g.relation(r).arity();
    if (a <= 1) {
      std::sort(records.begin(), records.end());
      nb.local.mutable_relation(r).SwapFlatUnchecked(records);
      continue;
    }
    const size_t count = records.size() / a;
    std::vector<uint32_t> order(count);
    std::iota(order.begin(), order.end(), 0u);
    const ElemId* base = records.data();
    std::sort(order.begin(), order.end(), [base, a](uint32_t x, uint32_t y) {
      return std::lexicographical_compare(base + x * a, base + (x + 1) * a,
                                          base + y * a, base + (y + 1) * a);
    });
    std::vector<ElemId> sorted;
    for (uint32_t i : order) sorted.insert(sorted.end(), base + i * a, base + (i + 1) * a);
    nb.local.mutable_relation(r).SwapFlatUnchecked(sorted);
  }

  for (ElemId x : c) nb.distinguished.push_back(ReferenceLocalId(sphere, x));
  return nb;
}

// The cache fingerprint of a materialized structure: its relations flattened
// into the gathered-record form NeighborhoodFingerprint128 reads.
inline CanonFingerprint FingerprintOfStructure(const Structure& s,
                                               const Tuple& distinguished,
                                               CanonKeyScratch& key) {
  std::vector<uint32_t> arities;
  std::vector<std::vector<ElemId>> records;
  for (size_t r = 0; r < s.num_relations(); ++r) {
    arities.push_back(s.relation(r).arity());
    const std::span<const ElemId> flat = s.relation(r).flat();
    records.emplace_back(flat.begin(), flat.end());
  }
  return NeighborhoodFingerprint128(s.universe_size(), arities, records,
                                    distinguished, key);
}

}  // namespace qpwm

#endif  // QPWM_TESTS_REFERENCE_EXTRACTION_H_
