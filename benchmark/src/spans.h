// In-memory span recorder for the benchmark's traced run.
//
// A span is one call from the benchmark into a library layer: a name, start
// and end on the steady clock, the span that caused it, and the request it
// belongs to (a round, a suspect or an epoch). Spans are appended under one
// mutex — they are coarse (one per library call, never per inner loop), so
// the lock is cheap next to the work it brackets — and read back only after
// the run ends.
//
// A span's self time is its duration minus the *union* of its children's
// intervals, not their sum: the stream soak's writer and detector lanes run
// concurrently under one epoch span, and summing two overlapping lanes
// would count the same wall time twice.
#ifndef QPWM_BENCHMARK_SPANS_H_
#define QPWM_BENCHMARK_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace qpwm_bench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  /// Static string: span names are compile-time literals.
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the causing span in the recorder, or -1 for a root.
  int32_t parent = -1;
  uint64_t request = 0;
  /// Work items the call handled (e.g. parameters served); 0 if unused.
  uint64_t items = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

class SpanRecorder {
 public:
  /// Opens a span and returns its id. `parent` -1 makes it a root.
  int32_t Begin(const char* name, uint64_t request, int32_t parent);
  void End(int32_t id, uint64_t items);
  /// Every span recorded so far (call once the traced run has ended).
  std::vector<Span> spans() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span. A null recorder makes it a no-op that never reads the clock,
/// which is what the untraced run uses. Without an explicit parent the span
/// nests under the innermost open span of the calling thread; work fanned
/// out to pool threads passes its parent explicitly.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name);
  ScopedSpan(SpanRecorder* rec, const char* name, uint64_t request);
  ScopedSpan(SpanRecorder* rec, const char* name, uint64_t request,
             int32_t parent);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t id() const { return id_; }
  uint64_t request() const { return request_; }
  void set_items(uint64_t items) { items_ = items; }

 private:
  SpanRecorder* rec_;
  int32_t id_ = -1;
  uint64_t request_ = 0;
  uint64_t items_ = 0;
  int32_t saved_id_ = -1;
  uint64_t saved_request_ = 0;
};

/// Self time of every span: its duration minus the union of its children's
/// intervals (clipped to the span). Index-aligned with `spans`.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Per span name, per request: summed self time (seconds), summed inclusive
/// time (seconds), call count and summed items.
struct NameTotals {
  double self_s = 0;
  double total_s = 0;
  uint64_t calls = 0;
  uint64_t items = 0;
};
using RequestTotals = std::map<std::string, std::map<uint64_t, NameTotals>>;
RequestTotals TotalsByRequest(const std::vector<Span>& spans,
                              const std::vector<int64_t>& self_ns);

/// Writes the spans as one JSON document (name, start/end relative to the
/// first span, parent, request, items, self time).
std::string SpansToJson(const std::vector<Span>& spans,
                        const std::vector<int64_t>& self_ns);

}  // namespace qpwm_bench

#endif  // QPWM_BENCHMARK_SPANS_H_
