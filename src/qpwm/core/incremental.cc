#include "qpwm/core/incremental.h"

#include <memory>
#include <set>
#include <string>

#include "qpwm/core/pairs.h"
#include "qpwm/structure/canon_cache.h"
#include "qpwm/structure/neighborhood.h"
#include "qpwm/util/check.h"
#include "qpwm/util/parallel.h"

namespace qpwm {
namespace {

std::set<std::string> TypeSet(const QueryIndex& index, uint32_t rho) {
  const TupleIncidence incidence(index.structure());
  ScratchPool<NeighborhoodScratch> pool;
  std::vector<std::string> canons(index.num_params());
  ParallelBlocks<int>(index.num_params(), [&](size_t begin, size_t end) {
    std::unique_ptr<NeighborhoodScratch> scratch = pool.Acquire();
    for (size_t i = begin; i < end; ++i) {
      const Neighborhood& nb =
          ExtractNeighborhoodInto(incidence, index.param(i), rho, *scratch);
      canons[i] = CanonCache::Global().Canonical(nb.local, nb.distinguished);
    }
    pool.Release(std::move(scratch));
    return 0;
  });
  return std::set<std::string>(canons.begin(), canons.end());
}

}  // namespace

WeightMap PropagateWeightsOnlyUpdate(const WeightMap& old_original,
                                     const WeightMap& old_marked,
                                     const WeightMap& new_original) {
  WeightMap out = new_original;
  // Carry over M = old_marked - old_original per tuple.
  old_marked.ForEach([&](const Tuple& t, Weight marked) {
    Weight delta = marked - old_original.Get(t);
    if (delta != 0) out.Add(t, delta);
  });
  return out;
}

Status CheckUpdateWellFormed(const Structure& g, const StructuralUpdate& u) {
  if (u.relation >= g.num_relations()) {
    return Status::InvalidArgument("update names relation #" +
                                   std::to_string(u.relation) + " but structure has " +
                                   std::to_string(g.num_relations()));
  }
  const Relation& rel = g.relation(u.relation);
  if (u.tuple.size() != rel.arity()) {
    return Status::InvalidArgument(
        "arity mismatch for relation " + rel.name() + ": got " +
        std::to_string(u.tuple.size()) + ", want " + std::to_string(rel.arity()));
  }
  for (ElemId e : u.tuple) {
    if (e >= g.universe_size()) {
      return Status::OutOfRange("tuple element " + std::to_string(e) +
                                " outside universe of size " +
                                std::to_string(g.universe_size()));
    }
  }
  return Status::OK();
}

Result<Structure> ApplyStructuralUpdates(
    const Structure& base, const std::vector<StructuralUpdate>& updates) {
  Structure out = base;
  for (const StructuralUpdate& u : updates) {
    QPWM_RETURN_NOT_OK(CheckUpdateWellFormed(out, u));
    Relation& rel = out.mutable_relation(u.relation);
    if (u.kind == StructuralUpdate::Kind::kInsertTuple) {
      if (rel.Contains(u.tuple)) {
        return Status::FailedPrecondition("insert of tuple already present in " +
                                          rel.name());
      }
      rel.Add(u.tuple);
    } else {
      if (!rel.Contains(u.tuple)) {
        return Status::FailedPrecondition("delete of tuple absent from " +
                                          rel.name());
      }
      // qpwm-lint: allow(legacy-tuple-vector) — one-shot rebuild while applying a deletion update
      std::vector<Tuple> kept;
      kept.reserve(rel.size() - 1);
      for (TupleRef t : rel.tuples()) {
        if (t != u.tuple) kept.push_back(t.ToTuple());
      }
      rel.SetTuplesUnchecked(kept);
    }
  }
  out.Seal();
  return out;
}

Status ValidateTypePreserving(const LocalScheme& scheme,
                              const QueryIndex& updated_index) {
  const UpdateCheck check = CheckTypePreservingUpdate(scheme, updated_index);
  if (!check.type_preserving) {
    return Status::FailedPrecondition(
        "update is not type-preserving: " + std::to_string(check.old_types) +
        " neighborhood types before, " + std::to_string(check.new_types) +
        " after");
  }
  return Status::OK();
}

UpdateCheck CheckTypePreservingUpdate(const LocalScheme& scheme,
                                      const QueryIndex& updated_index) {
  UpdateCheck out;
  const QueryIndex& old_index = scheme.index();
  const uint32_t rho = scheme.rho();

  std::set<std::string> old_types = TypeSet(old_index, rho);
  std::set<std::string> new_types = TypeSet(updated_index, rho);
  out.old_types = old_types.size();
  out.new_types = new_types.size();
  out.type_preserving = old_types == new_types;

  // Which pairs survive: both elements must still be active (readable
  // through some query answer) on the updated instance.
  std::vector<WeightPair> surviving;
  for (const WeightPair& p : scheme.marking().pairs()) {
    auto plus = updated_index.FindActive(old_index.active_element(p.plus));
    auto minus = updated_index.FindActive(old_index.active_element(p.minus));
    if (plus.ok() && minus.ok()) {
      surviving.push_back({static_cast<uint32_t>(plus.value()),
                           static_cast<uint32_t>(minus.value())});
    }
  }
  out.surviving_pairs = surviving.size();
  if (!surviving.empty()) {
    out.new_cost_bound = PairMarking(updated_index, std::move(surviving)).MaxCost();
  }
  return out;
}

}  // namespace qpwm
