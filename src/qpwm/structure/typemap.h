// Neighborhood isomorphism types of parameter tuples: the ~rho equivalence
// classes, their count ntp(rho, G), and one canonical representative per type
// (the paper's "canonical parameters" S).
#ifndef QPWM_STRUCTURE_TYPEMAP_H_
#define QPWM_STRUCTURE_TYPEMAP_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "qpwm/structure/canon_cache.h"
#include "qpwm/structure/neighborhood.h"
#include "qpwm/structure/structure.h"

namespace qpwm {

/// Assigns isomorphism-type ids to tuples by the canonical form of their
/// rho-neighborhood. Type ids are dense, in first-seen order; the first tuple
/// seen of each type is kept as its canonical representative.
class NeighborhoodTyper {
 public:
  /// Canonical forms are memoized through `cache` (nullptr = no caching,
  /// every call canonicalizes from scratch). The default shares the
  /// process-wide cache. The cache must not be Clear()'d while this typer is
  /// live (it memoizes the cache's interned ids).
  NeighborhoodTyper(const Structure& g, uint32_t rho,
                    CanonCache* cache = &CanonCache::Global());

  /// Type id of tuple `c` (computes and memoizes the canonical form).
  /// Allocation-free once the member scratch is warm on the cached path.
  uint32_t TypeOf(const Tuple& c);

  /// Types a whole batch. Neighborhood extraction and canonicalization run
  /// in parallel (see util/parallel.h) with pooled per-worker scratch; type
  /// ids are interned serially in input order, so the result — ids,
  /// NumTypes(), representatives — is bit-identical to calling TypeOf on
  /// each tuple in order, for any thread count.
  std::vector<uint32_t> TypeAll(const std::vector<Tuple>& tuples);

  /// Number of distinct types seen so far — ntp(rho, G) once every tuple of
  /// the parameter domain has been typed.
  size_t NumTypes() const { return representatives_.size(); }

  /// The canonical forms of every type seen so far, sorted — the type set
  /// itself, comparable across typers and structures.
  std::vector<std::string> SortedForms() const;

  /// Canonical representative tuple of a type.
  const Tuple& Representative(uint32_t type) const { return representatives_[type]; }

  uint32_t rho() const { return rho_; }
  /// The one index typing builds over the structure.
  const TupleIncidence& incidence() const { return incidence_; }

 private:
  /// Canonical form of the rho-neighborhood of `c`, uncached string path.
  std::string Canon(const Tuple& c, NeighborhoodScratch& nb) const;
  /// Interns a canonical form, registering `c` as representative when new.
  uint32_t Intern(std::string canon, const Tuple& c);
  /// Type id for an interned CanonCache id; fetches the canonical string only
  /// the first time a given cache id is seen. Serial-only (not locked).
  uint32_t InternCacheId(uint32_t cache_id, const Tuple& c);
  /// Shared-cache id of `c`'s neighborhood: gathers and fingerprints its
  /// records, and builds the local structure only on a cache miss.
  uint32_t CachedId(const Tuple& c, NeighborhoodScratch& nb, CanonKeyScratch& key) const;

  uint32_t rho_;
  TupleIncidence incidence_;
  CanonCache* cache_;
  std::unordered_map<std::string, uint32_t> canon_to_type_;
  /// Memo from the shared cache's interned ids to this typer's dense type
  /// ids. Distinct cache ids always mean distinct canonical forms, so this
  /// never aliases two types.
  std::unordered_map<uint32_t, uint32_t> cache_id_to_type_;
  std::vector<Tuple> representatives_;
  /// Reusable buffers for the serial TypeOf path.
  NeighborhoodScratch nb_scratch_;
  CanonKeyScratch key_scratch_;
};

}  // namespace qpwm

#endif  // QPWM_STRUCTURE_TYPEMAP_H_
