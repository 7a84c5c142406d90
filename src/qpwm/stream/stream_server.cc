#include "qpwm/stream/stream_server.h"

#include <string>
#include <utility>

#include "qpwm/util/check.h"

namespace qpwm {

StreamServer::StreamServer(const LocalScheme& scheme, WeightMap original,
                           WeightMap marked)
    : scheme_(&scheme),
      domain_(scheme.index().domain()),
      original_(std::move(original)),
      marked_(std::move(marked)) {
  // Own a copy of the deployment structure and rebuild the index against it,
  // so structural epochs can swap both without touching the scheme's
  // planning-time instance.
  structure_ = std::make_shared<const Structure>(scheme.index().structure());
  index_ = BuildIndex(structure_);
  Publish();  // epoch 0
}

std::shared_ptr<const QueryIndex> StreamServer::BuildIndex(
    const std::shared_ptr<const Structure>& g) const {
  return std::make_shared<const QueryIndex>(*g, scheme_->index().query(),
                                            domain_);
}

Status StreamServer::Submit(const Update& u) {
  ++counters_.submitted;
  ++counters_.submitted_by_kind[static_cast<size_t>(u.kind)];
  Status status = SubmitImpl(u);
  if (!status.ok()) Reject(u, status);
  return status;
}

Status StreamServer::SubmitImpl(const Update& u) {
  if (frozen_) return Status::FailedPrecondition("stream is frozen");
  switch (u.kind) {
    case UpdateKind::kWeightRefresh:
    case UpdateKind::kWeightWrite: {
      if (u.elem >= structure_->universe_size()) {
        return Status::OutOfRange("weight update targets element " +
                                  std::to_string(u.elem) +
                                  " outside universe of size " +
                                  std::to_string(structure_->universe_size()));
      }
      if (u.kind == UpdateKind::kWeightRefresh) {
        // Theorem 7: the owner's refresh moves original and marked copies by
        // the same delta, so every pair keeps its mark distortion.
        original_.AddElem(u.elem, u.delta);
      }
      marked_.AddElem(u.elem, u.delta);
      Apply(u);
      return Status::OK();
    }
    default: {
      if (u.edits.empty()) {
        return Status::InvalidArgument("structural update carries no edits");
      }
      // Shape gate now; the semantic (Theorem 8) gate runs at epoch seal.
      for (const StructuralUpdate& edit : u.edits) {
        QPWM_RETURN_NOT_OK(CheckUpdateWellFormed(*structure_, edit));
      }
      pending_.push_back(u);
      return Status::OK();
    }
  }
}

void StreamServer::Reject(const Update& u, const Status& status) {
  QPWM_CHECK(!status.ok());
  ++counters_.rejected;
  ++counters_.rejected_by_code[static_cast<size_t>(status.code())];
  ++counters_.rejected_by_kind[static_cast<size_t>(u.kind)];
}

void StreamServer::Apply(const Update& u) {
  ++counters_.applied;
  ++counters_.applied_by_kind[static_cast<size_t>(u.kind)];
}

std::shared_ptr<const StreamSnapshot> StreamServer::SealEpoch() {
  std::vector<Update> batch = std::move(pending_);
  pending_.clear();

  if (!batch.empty()) {
    const std::shared_ptr<const Structure> before = structure_;
    // Fast path: admit the whole staged batch at once if its combined result
    // passes the type gate.
    std::vector<StructuralUpdate> all_edits;
    for (const Update& u : batch) {
      all_edits.insert(all_edits.end(), u.edits.begin(), u.edits.end());
    }
    Result<Structure> combined = ApplyStructuralUpdates(*structure_, all_edits);
    const bool committed =
        combined.ok() && ValidateTypePreserving(*scheme_, combined.value()).ok();
    if (committed) {
      structure_ = std::make_shared<const Structure>(std::move(combined).value());
      for (const Update& u : batch) Apply(u);
    } else {
      // Deterministic per-update fallback: re-admit in submission order so a
      // single hostile update cannot veto the epoch's honest churn. Each
      // admitted update commits before the next is judged.
      ++counters_.fallback_epochs;
      for (const Update& u : batch) {
        Result<Structure> one = ApplyStructuralUpdates(*structure_, u.edits);
        if (!one.ok()) {
          Reject(u, one.status());
          continue;
        }
        const Status gate = ValidateTypePreserving(*scheme_, one.value());
        if (!gate.ok()) {
          Reject(u, gate);
          continue;
        }
        structure_ = std::make_shared<const Structure>(std::move(one).value());
        Apply(u);
      }
    }
    // The gate reads structures only and the index is read only through
    // published snapshots, so it is rebuilt once per epoch, after admission,
    // and only when an update was admitted.
    if (structure_ != before) index_ = BuildIndex(structure_);
  }

  ++epoch_;
  ++counters_.epochs_sealed;
  Publish();
  return published_;
}

void StreamServer::Publish() {
  auto serving = std::make_shared<const ServingSnapshot>(*index_, marked_, epoch_);
  auto snap = std::make_shared<const StreamSnapshot>(
      epoch_, structure_, index_, original_, std::move(serving));
  if (published_) published_->Retire();
  published_ = std::move(snap);
}

}  // namespace qpwm
