// rho-neighborhoods N_rho(c): the substructure induced by the rho-sphere
// around a tuple, with the tuple's elements distinguished (as constants).
// Two tuples are rho-equivalent (a ~rho b) iff their neighborhoods are
// isomorphic as distinguished structures.
//
// Extraction reads one array: a TupleIncidence stores, per element, every
// tuple containing it inline (relation id, then the elements). The sphere
// BFS walks those records for adjacency and the record gather reads the
// same records, so neither the Gaifman graph nor the source relations are
// touched per element, and each tuple costs one contiguous read.
#ifndef QPWM_STRUCTURE_NEIGHBORHOOD_H_
#define QPWM_STRUCTURE_NEIGHBORHOOD_H_

#include <cstdint>
#include <span>
#include <vector>

#include "qpwm/structure/structure.h"

namespace qpwm {

/// Per-element incidence CSR with the tuples inline. The records of element
/// e are the distinct tuples containing e (each once, even when e repeats
/// in it), in (relation, tuple index) order; a record is the relation id
/// followed by the tuple's arity(relation) elements. Nullary tuples contain
/// no element and appear nowhere. Built once per structure; the structure
/// must outlive the index.
class TupleIncidence {
 public:
  explicit TupleIncidence(const Structure& s);

  const Structure& structure() const { return *g_; }
  size_t size() const { return offsets_.size() - 1; }
  const std::vector<uint32_t>& arities() const { return arity_; }

  /// The records of element `e`, concatenated.
  std::span<const uint32_t> Records(ElemId e) const {
    return {words_.data() + offsets_[e], offsets_[e + 1] - offsets_[e]};
  }

  /// Process-unique id of this index; scratch arenas bind to it.
  uint64_t id() const { return id_; }

  size_t BytesResident() const {
    return offsets_.capacity() * sizeof(uint32_t) + words_.capacity() * sizeof(uint32_t) +
           arity_.capacity() * sizeof(uint32_t);
  }

 private:
  const Structure* g_;
  std::vector<uint32_t> arity_;    // per relation
  std::vector<uint32_t> offsets_;  // universe_size + 1, into words_
  std::vector<uint32_t> words_;
  uint64_t id_;
};

/// An extracted neighborhood: a small local structure plus the positions of
/// the distinguished tuple and the local->global element mapping.
struct Neighborhood {
  Structure local;
  Tuple distinguished;              // local ids of c, in order
  std::vector<ElemId> global_ids;   // local id -> global id (ascending)
};

/// Per-worker arena for repeated neighborhood extraction. Holds the dense
/// global->local id table (sized to the universe once, reset through the
/// BFS queue after every call), the per-relation record buffers and a
/// reusable Neighborhood whose local structure is recycled, so the
/// per-element hot loop of a typing pass does zero steady-state allocation.
/// A scratch binds to one TupleIncidence at a time and must not be shared
/// across threads.
struct NeighborhoodScratch {
  std::vector<ElemId> local_of;                // global id -> local id
  std::vector<ElemId> queue;                   // BFS order; the touched list
  std::vector<std::vector<ElemId>> rel_flat;   // per relation: local records
  std::vector<uint32_t> rec_order;             // record sort permutation
  std::vector<ElemId> rel_sorted;              // gather target for the swap
  Neighborhood nb;
  uint64_t bound = 0;                          // id of the bound index
};

/// First half of an extraction: computes the sphere into nb.global_ids, the
/// distinguished local ids into nb.distinguished, and each relation's
/// records (local ids, one per tuple, in no particular order) into
/// rel_flat. Leaves nb.local untouched. Every element of `c` must lie in the
/// universe.
void GatherNeighborhood(const TupleIncidence& inc, const Tuple& c, uint32_t rho,
                        NeighborhoodScratch& scratch);

/// Second half: installs the records of the last GatherNeighborhood into
/// nb.local, each relation sorted. The gathered records are consumed.
Neighborhood& MaterializeNeighborhood(const TupleIncidence& inc,
                                      NeighborhoodScratch& scratch);

/// Gather then materialize into `scratch.nb`, with zero steady-state
/// allocation. The returned reference points into `scratch` and is
/// invalidated by the next call on the same scratch.
Neighborhood& ExtractNeighborhoodInto(const TupleIncidence& inc, const Tuple& c,
                                      uint32_t rho, NeighborhoodScratch& scratch);

/// Allocating form of ExtractNeighborhoodInto (sizes a fresh id table per
/// call; use the scratch form in loops).
Neighborhood ExtractNeighborhood(const TupleIncidence& inc, const Tuple& c,
                                 uint32_t rho);

}  // namespace qpwm

#endif  // QPWM_STRUCTURE_NEIGHBORHOOD_H_
