#include "qpwm/core/incremental.h"

#include <string>

#include "qpwm/core/pairs.h"
#include "qpwm/structure/typemap.h"
#include "qpwm/util/str.h"

namespace qpwm {
namespace {

// The sorted canonical forms of the rho-neighborhoods of `domain` in `g`.
std::vector<std::string> TypeForms(const Structure& g,
                                   const std::vector<Tuple>& domain,
                                   uint32_t rho) {
  NeighborhoodTyper typer(g, rho);
  typer.TypeAll(domain);
  return typer.SortedForms();
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
                              const Structure& updated) {
  const Structure& planned = scheme.index().structure();
  if (updated.universe_size() != planned.universe_size()) {
    return Status::InvalidArgument(
        StrCat("updated structure has a universe of ", updated.universe_size(),
               " elements, the planning instance ", planned.universe_size()));
  }
  if (!(updated.signature() == planned.signature())) {
    return Status::InvalidArgument(
        "updated structure's relation signature differs from the planning "
        "instance's");
  }
  const std::vector<std::string> forms =
      TypeForms(updated, scheme.index().domain(), scheme.rho());
  if (forms != scheme.TypeForms()) {
    return Status::FailedPrecondition(
        StrCat("update is not type-preserving: ", scheme.NumTypes(),
               " neighborhood types before, ", forms.size(), " after"));
  }
  return Status::OK();
}

UpdateCheck CheckTypePreservingUpdate(const LocalScheme& scheme,
                                      const QueryIndex& updated_index) {
  UpdateCheck out;
  const QueryIndex& old_index = scheme.index();
  const std::vector<std::string> new_forms = TypeForms(
      updated_index.structure(), updated_index.domain(), scheme.rho());
  out.old_types = scheme.NumTypes();
  out.new_types = new_forms.size();
  out.type_preserving = new_forms == scheme.TypeForms();

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
