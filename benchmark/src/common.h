// Shared pieces of the benchmark: the workload interface, the run limit,
// what one run of a workload hands back, and small statistics helpers.
#ifndef QPWM_BENCHMARK_COMMON_H_
#define QPWM_BENCHMARK_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "spans.h"

namespace qpwm {
class LocalScheme;
}  // namespace qpwm

namespace qpwm_bench {

class Stopwatch {
 public:
  Stopwatch() : t0_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
        .count();
  }
  double Ms() const { return Seconds() * 1e3; }

 private:
  std::chrono::steady_clock::time_point t0_;
};

/// When a workload's timed loop stops. A timed run keeps going until both
/// `seconds` have passed and `min_ops` requests are done (but never past
/// `max_seconds`); a replay runs exactly `exact_ops` requests, so the traced
/// and untraced runs can be compared request by request.
struct Limit {
  double seconds = 0;
  double max_seconds = 0;
  size_t min_ops = 0;
  size_t exact_ops = 0;

  bool More(size_t done, const Stopwatch& since_start) const {
    if (exact_ops > 0) return done < exact_ops;
    const double t = since_start.Seconds();
    if (t >= max_seconds) return false;
    return done < min_ops || t < seconds;
  }
};

/// Everything one set-up or one timed loop of a workload reports.
struct RunOutput {
  /// Requests completed: rounds, suspects or soaks.
  size_t ops = 0;
  /// Checked operations and how many of them failed a check.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  /// One canonical rendering of each request's outputs (verdicts,
  /// accusations, payloads, admission counters), compared between the
  /// traced and the untraced run.
  std::vector<std::string> outputs;
  /// Wall time of the timed sections, each of which is one root span in
  /// the traced run.
  double timed_s = 0;
  /// Throughput: the workload's units (copies, suspects, updates) per
  /// request and the wall time of each request. ops_per_s divides the units
  /// by the *median* request time, so a few requests stalled by the host
  /// (a preempted vCPU holding up a parallel section) do not move it.
  double units_per_op = 1;
  std::vector<double> op_s;
  /// Timing samples of the end-to-end metrics: plan_s (seconds), embed_ms,
  /// detect_ms, trace_ms, seal_ms (milliseconds).
  std::map<std::string, std::vector<double>> samples;
  /// Per-layer counters, one sample per plan, suspect or soak.
  std::map<std::string, std::vector<double>> layer;

  void Fail(const std::string& why) {
    ++failed;
    if (failures.size() < 8) failures.push_back(why);
  }
  void Merge(const RunOutput& other) {
    for (const auto& [k, v] : other.samples) {
      samples[k].insert(samples[k].end(), v.begin(), v.end());
    }
    for (const auto& [k, v] : other.layer) {
      layer[k].insert(layer[k].end(), v.begin(), v.end());
    }
    attempted += other.attempted;
    failed += other.failed;
    for (const std::string& f : other.failures) {
      if (failures.size() < 8) failures.push_back(f);
    }
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the workload's inputs from `seed`, replacing any earlier ones.
  /// Timed as set-up; samples of library calls made here (plans, embeds)
  /// go into `out`.
  virtual void Setup(uint64_t seed, RunOutput& out) = 0;
  /// The timed loop. `rec` is null in the untraced run. Checks run outside
  /// the timed sections.
  virtual void Run(const Limit& limit, SpanRecorder* rec, RunOutput& out) = 0;
  /// Fewest requests a timed run makes.
  virtual size_t MinOps() const = 0;
  /// Most threads the library's pool gets. On a 4-vCPU shared host,
  /// parallel sections at 4 threads wait for whichever vCPU the host slows:
  /// in interleaved runs the spread of detect_ms and ops_per_s between runs
  /// doubled against 2 threads, and 2 threads also served Observe faster.
  virtual size_t MaxThreads() const { return 2; }
};

std::unique_ptr<Workload> MakePlanEmbed();
/// Everything that identifies a local-scheme plan: its statistics and its
/// pair layout.
std::string PlanFingerprint(const qpwm::LocalScheme& scheme);
std::unique_ptr<Workload> MakeDetectTrace();
std::unique_ptr<Workload> MakeStreamSoak();
std::unique_ptr<Workload> MakeTreeDetect();

/// Linear-interpolated quantile (q in [0, 1]); 0 for no samples.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Quantile q of samples kept in the order they were taken, robust to host
/// stalls that slow part of a run: the samples are cut into up to
/// kMaxBlocks consecutive blocks of at least kMinBlock samples, and the
/// result is the median over blocks of each block's quantile. With fewer
/// than three blocks' worth of samples it is the plain quantile.
inline double BlockQuantile(const std::vector<double>& v, double q) {
  constexpr size_t kMinBlock = 20;
  constexpr size_t kMaxBlocks = 20;
  const size_t blocks = std::min(kMaxBlocks, v.size() / kMinBlock);
  if (blocks < 3) return Quantile(v, q);
  std::vector<double> per_block;
  for (size_t b = 0; b < blocks; ++b) {
    const auto first = v.begin() + static_cast<std::ptrdiff_t>(b * v.size() / blocks);
    const auto last =
        v.begin() + static_cast<std::ptrdiff_t>((b + 1) * v.size() / blocks);
    per_block.push_back(Quantile(std::vector<double>(first, last), q));
  }
  return Median(per_block);
}

/// Full-precision rendering for canonical output strings.
template <typename... Args>
std::string Canon(const Args&... args) {
  std::ostringstream os;
  os.precision(17);
  ((os << args << '|'), ...);
  return os.str();
}

}  // namespace qpwm_bench

#endif  // QPWM_BENCHMARK_COMMON_H_
