// Incremental watermarking (Section 5).
//
// Theorem 7 (weights-only updates): when the owner updates weights but not
// the structure, re-applying the recorded per-tuple mark deltas to the new
// weights preserves both the global distortion and detectability — the
// detector only ever looks at differences against the owner's originals.
//
// Theorem 8 (type-preserving structural updates): if an update to the
// structure creates or removes no neighborhood isomorphism type, the
// existing pair marking remains valid as a (|W|, eta, 0, 0) procedure. The
// admission gate (ValidateTypePreserving) checks neighborhood types only;
// the report (CheckTypePreservingUpdate) also gives the surviving pairs and
// their realized cost on the updated instance, but no cost bound is
// enforced.
#ifndef QPWM_CORE_INCREMENTAL_H_
#define QPWM_CORE_INCREMENTAL_H_

#include <cstdint>
#include <vector>

#include "qpwm/core/local_scheme.h"
#include "qpwm/structure/weighted.h"
#include "qpwm/util/status.h"

namespace qpwm {

/// Theorem 7: propagates the mark from (old_original -> old_marked) onto
/// new_original. Every tuple keeps its distortion M = old_marked - old_original.
WeightMap PropagateWeightsOnlyUpdate(const WeightMap& old_original,
                                     const WeightMap& old_marked,
                                     const WeightMap& new_original);

/// Outcome of a type-preservation check after a structural update.
struct UpdateCheck {
  bool type_preserving = false;  // same set of neighborhood types?
  size_t old_types = 0;
  size_t new_types = 0;
  /// Pairs of the existing marking whose both elements are still active on
  /// the updated instance (detectable bits kept).
  size_t surviving_pairs = 0;
  /// Realized max cost of the surviving pairs on the updated instance.
  uint32_t new_cost_bound = 0;
};

/// Theorem 8: checks whether `updated_index` (same query, updated structure
/// or domain) preserves all neighborhood types of the planning radius and
/// whether the scheme's pairs survive. The old types are the scheme's
/// TypeForms(); only the updated instance is typed. Does not modify the
/// scheme.
UpdateCheck CheckTypePreservingUpdate(const LocalScheme& scheme,
                                      const QueryIndex& updated_index);

/// One structural edit against a live structure: insert or delete a single
/// tuple of one relation. The stream layer batches these per epoch and
/// admits a batch only when the result passes the Theorem 8 type check.
struct StructuralUpdate {
  enum class Kind { kInsertTuple, kDeleteTuple };
  Kind kind = Kind::kInsertTuple;
  size_t relation = 0;
  Tuple tuple;
};

/// Shape validation against the structure's signature and universe, before
/// any semantic check: unknown relation index / wrong arity yield
/// kInvalidArgument, an element outside the universe yields kOutOfRange
/// (the SPSW-style fake-tuple signature — referencing rows that do not
/// exist).
[[nodiscard]] Status CheckUpdateWellFormed(const Structure& g,
                                           const StructuralUpdate& u);

/// Applies `updates` in order to a copy of `base` and seals the result.
/// Every update must be well-formed; inserting a tuple already present or
/// deleting one that is absent yields kFailedPrecondition (the batch is
/// rejected wholesale — callers quarantine and retry per-update if they
/// want partial application).
[[nodiscard]] Result<Structure> ApplyStructuralUpdates(
    const Structure& base, const std::vector<StructuralUpdate>& updates);

/// The admission gate the stream layer applies before committing a
/// structural epoch: OK iff `updated` has exactly the scheme's neighborhood
/// types (Theorem 8's hypothesis) over the scheme's parameter domain, else
/// kFailedPrecondition naming the old/new type counts. Only `updated` is
/// typed; the planning instance's types come from scheme.TypeForms(). No
/// query index, pair or cost work is done: pairs lost to an admitted update
/// surface as erasures at detection time, which the coded channel absorbs.
/// A structure whose universe size or relation signature differs from the
/// planning instance's yields kInvalidArgument.
[[nodiscard]] Status ValidateTypePreserving(const LocalScheme& scheme,
                                            const Structure& updated);

}  // namespace qpwm

#endif  // QPWM_CORE_INCREMENTAL_H_
