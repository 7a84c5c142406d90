// The long-running watermarked server under an update stream.
//
// The server owns the live state — an evolving structure, the owner's
// original weights and the served marked copy — and admits or quarantines
// every submitted update:
//
//   * weight kinds apply immediately (a refresh moves original and marked
//     together, Theorem 7; an in-range write only moves the served copy —
//     the server cannot tell tampering from maintenance);
//   * structural kinds are shape-checked at submission (arity / relation /
//     universe — the immediate quarantine path) and staged; SealEpoch()
//     applies the staged batch through ApplyStructuralUpdates and admits it
//     only if the resulting structure passes the Theorem 8 type gate
//     (ValidateTypePreserving), which checks neighborhood types only — no
//     cost bound. A failing batch falls back to deterministic per-update
//     admission so one hostile update cannot veto an epoch of honest churn.
//     The query index is rebuilt once per sealed epoch, and only when an
//     update was admitted.
//
// Every rejected update is quarantined with its Status reason and counted
// by StatusCode and by UpdateKind; the accounting invariant
// submitted == applied + rejected holds after every seal.
//
// SealEpoch() publishes an immutable epoch-stamped StreamSnapshot (structure
// + query index + owner originals + a ServingSnapshot of the marked copy)
// and retires the previous one. Detection reads snapshots only, so it never
// races the writer; the writer keeps mutating the live state underneath.
#ifndef QPWM_STREAM_STREAM_SERVER_H_
#define QPWM_STREAM_STREAM_SERVER_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "qpwm/core/answers.h"
#include "qpwm/core/incremental.h"
#include "qpwm/core/local_scheme.h"
#include "qpwm/stream/update.h"
#include "qpwm/util/status.h"

namespace qpwm {

/// Distinct StatusCode values (kOk .. kInternal), for dense counters.
inline constexpr size_t kNumStatusCodes =
    static_cast<size_t>(StatusCode::kInternal) + 1;

/// One published epoch: everything a detect pass needs, frozen. The
/// structure and index are shared with later epochs when no structural
/// update was admitted in between.
struct StreamSnapshot {
  uint64_t epoch = 0;
  std::shared_ptr<const Structure> structure;
  std::shared_ptr<const QueryIndex> index;
  /// Owner originals at seal time — the detector's reference weights.
  WeightMap original;
  /// Frozen marked weights behind the epoch's answer server.
  std::shared_ptr<const ServingSnapshot> serving;

  StreamSnapshot(uint64_t e, std::shared_ptr<const Structure> s,
                 std::shared_ptr<const QueryIndex> i, WeightMap orig,
                 std::shared_ptr<const ServingSnapshot> serve)
      : epoch(e), structure(std::move(s)), index(std::move(i)),
        original(std::move(orig)), serving(std::move(serve)) {}

  /// Superseded by a newer epoch? (Delegates to the serving snapshot's
  /// atomic flag; thread-safe.)
  bool retired() const { return serving->retired(); }
  void Retire() const { serving->Retire(); }
};

/// Quarantine/admission accounting. `submitted == applied + rejected` holds
/// whenever no structural updates are staged (i.e. after every SealEpoch).
struct StreamCounters {
  uint64_t submitted = 0;
  uint64_t applied = 0;
  uint64_t rejected = 0;
  std::array<uint64_t, kNumStatusCodes> rejected_by_code{};
  std::array<uint64_t, kNumUpdateKinds> submitted_by_kind{};
  std::array<uint64_t, kNumUpdateKinds> applied_by_kind{};
  std::array<uint64_t, kNumUpdateKinds> rejected_by_kind{};
  /// Epochs whose staged batch failed wholesale and was re-admitted
  /// per-update.
  uint64_t fallback_epochs = 0;
  uint64_t epochs_sealed = 0;
};

class StreamServer {
 public:
  /// `scheme` is the planning-time scheme whose pair layout the stream must
  /// keep valid (its type gate drives admission); `original` / `marked` are
  /// the owner's weights and the embedded copy at deployment time. The
  /// scheme — and the query object its index references — must outlive the
  /// server. The constructor publishes the epoch-0 snapshot.
  StreamServer(const LocalScheme& scheme, WeightMap original, WeightMap marked);

  /// Admits, stages, or quarantines one update. Weight updates resolve
  /// immediately; shape-valid structural updates return OK and resolve at
  /// the next SealEpoch(). After Freeze(), every submission is rejected
  /// with kFailedPrecondition.
  [[nodiscard]] Status Submit(const Update& u);

  /// Submit for callers that don't branch on the Status (the server has
  /// already recorded the outcome either way).
  void Ingest(const Update& u) {
    // qpwm-lint: allow(xtu-discarded-status) -- fire-and-forget by contract: Submit records every outcome in the server's admission counters
    const Status status = Submit(u);
    (void)status;
  }

  /// Resolves the staged structural batch, advances the epoch, publishes a
  /// fresh snapshot, and retires the previous one.
  std::shared_ptr<const StreamSnapshot> SealEpoch();

  /// Latest published snapshot (never null).
  std::shared_ptr<const StreamSnapshot> snapshot() const { return published_; }

  /// Stops ingestion: later Submits are rejected with kFailedPrecondition.
  void Freeze() { frozen_ = true; }
  bool frozen() const { return frozen_; }

  const Structure& structure() const { return *structure_; }
  const QueryIndex& index() const { return *index_; }
  const WeightMap& original() const { return original_; }
  /// The live marked copy; each sealed epoch serves a frozen copy of it.
  const WeightMap& marked() const { return marked_; }
  const StreamCounters& counters() const { return counters_; }
  uint64_t epoch() const { return epoch_; }
  size_t staged() const { return pending_.size(); }

 private:
  [[nodiscard]] Status SubmitImpl(const Update& u);
  void Reject(const Update& u, const Status& status);
  void Apply(const Update& u);
  /// Builds a QueryIndex over `g` with the scheme's query and domain.
  std::shared_ptr<const QueryIndex> BuildIndex(
      const std::shared_ptr<const Structure>& g) const;
  void Publish();

  const LocalScheme* scheme_;
  // qpwm-lint: allow(legacy-tuple-vector) — owned query-parameter domain snapshot
  std::vector<Tuple> domain_;
  std::shared_ptr<const Structure> structure_;
  std::shared_ptr<const QueryIndex> index_;
  WeightMap original_;
  WeightMap marked_;
  std::vector<Update> pending_;
  std::shared_ptr<const StreamSnapshot> published_;
  StreamCounters counters_;
  uint64_t epoch_ = 0;
  bool frozen_ = false;
};

}  // namespace qpwm

#endif  // QPWM_STREAM_STREAM_SERVER_H_
