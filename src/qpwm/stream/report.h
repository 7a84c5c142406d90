// StreamReport: the deterministic outcome record of one soak run.
//
// Aggregates the server's quarantine/admission counters, the generator's
// traffic mix, the detector's per-pass survival curve, and virtual-tick
// latency percentiles for detect-under-write passes. Serializes to JSON with
// no wall-clock, hash-order, or thread-count dependence — the soak gate
// diffs the JSON byte-for-byte between --threads 1 and --threads 4.
#ifndef QPWM_STREAM_REPORT_H_
#define QPWM_STREAM_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "qpwm/stream/detect_loop.h"
#include "qpwm/stream/stream_server.h"
#include "qpwm/stream/update.h"

namespace qpwm {

class JsonWriter;

struct TickPercentiles {
  uint64_t p50 = 0;
  uint64_t p90 = 0;
  uint64_t p99 = 0;
};

/// Nearest-rank percentiles (deterministic; no interpolation) over the
/// completed passes' tick latencies. All-zero when `values` is empty.
TickPercentiles PercentilesOf(std::vector<uint64_t> values);

struct StreamReport {
  // Traffic.
  uint64_t generated = 0;
  uint64_t hostile_generated = 0;
  std::vector<uint64_t> generated_by_kind;  // indexed by UpdateKind

  // Admission / quarantine (from StreamCounters).
  StreamCounters counters;

  // Detection.
  uint64_t passes_completed = 0;
  uint64_t retried = 0;
  uint64_t gave_up = 0;
  std::vector<DetectOutcome> passes;
  TickPercentiles latency;
  DetectOutcome final_audit;

  /// Every submitted update resolved to applied or rejected, and everything
  /// generated was submitted.
  bool Accounted() const {
    return counters.submitted == counters.applied + counters.rejected &&
           generated == counters.submitted;
  }
};

/// Assembles the report. Call after the final SealEpoch so no structural
/// updates are still staged (Accounted() assumes a sealed stream).
StreamReport BuildStreamReport(const UpdateGenerator& generator,
                               const StreamServer& server,
                               const EpochDetector& detector,
                               const DetectOutcome& final_audit);

/// Deterministic JSON rendering (stable key order, fixed float formatting),
/// written as one object value into `w`.
void WriteStreamReportJson(JsonWriter& w, const StreamReport& report);

/// The same object as a standalone string, sized exactly to its contents.
std::string StreamReportToJson(const StreamReport& report);

}  // namespace qpwm

#endif  // QPWM_STREAM_REPORT_H_
