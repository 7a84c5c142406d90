// qpwm_benchmark — one workload per process: set-up, a timed loop, checks,
// and one JSON result line.
//
//   qpwm_benchmark --workload NAME --seed N --seconds S --trace 0|1
//                  [--commit ID] [--out-dir DIR]
//
// --trace 0 prints the end-to-end metrics, measured with tracing off.
// --trace 1 runs the timed loop with spans recorded, then replays exactly
// the same requests untraced: the per-layer metrics come from the spans,
// the outputs of both runs must be identical, and the wall-time gap
// between them is the tracing overhead. Spans are written to
// DIR/<workload>-seed<N>.spans.json when the run ends.
//
// The last line of stdout is the result object; earlier lines are for
// people (metrics with units, provenance, failures).
#include <sys/resource.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "qpwm/stream/stream_server.h"
#include "qpwm/structure/canon_cache.h"
#include "qpwm/util/parallel.h"
#include "qpwm/util/status.h"
#include "spans.h"

#ifndef QPWM_BENCH_BUILD_TYPE
#define QPWM_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef QPWM_BENCH_COMPILER
#define QPWM_BENCH_COMPILER "unknown"
#endif

namespace qpwm_bench {
namespace {

constexpr size_t kSetupReps = 7;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
  std::string out_dir;
};

int Usage() {
  std::cerr << "usage: qpwm_benchmark --workload "
               "plan-embed|detect-trace|stream-soak|tree-detect --seed N "
               "--seconds S --trace 0|1 [--commit ID] [--out-dir DIR]\n";
  return 2;
}

bool ParseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      a.trace = value == "1";
    } else if (flag == "--commit") {
      a.commit = value;
    } else if (flag == "--out-dir") {
      a.out_dir = value;
    } else {
      return false;
    }
  }
  return !a.workload.empty();
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "plan-embed") return MakePlanEmbed();
  if (name == "detect-trace") return MakeDetectTrace();
  if (name == "stream-soak") return MakeStreamSoak();
  if (name == "tree-detect") return MakeTreeDetect();
  return nullptr;
}

/// Peak resident set of this process image. VmHWM, not getrusage: Linux
/// carries ru_maxrss across exec, so it would report the launcher's peak.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
}

/// Hands freed heap pages back to the kernel between set-up repetitions, so
/// the peak RSS a run reports does not depend on how the allocator's
/// per-thread arenas happened to fragment in earlier repetitions.
void ReleaseFreeMemory() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Median over requests of a per-request span total; 0 if never recorded.
double MedianPerRequest(const RequestTotals& totals, const std::string& name,
                        const std::function<double(const NameTotals&)>& field) {
  auto it = totals.find(name);
  if (it == totals.end()) return 0;
  std::vector<double> v;
  for (const auto& [request, t] : it->second) v.push_back(field(t));
  return Median(v);
}

double LayerMedian(const RunOutput& out, const std::string& name) {
  auto it = out.layer.find(name);
  return it == out.layer.end() ? 0 : Median(it->second);
}

double SampleQuantile(const RunOutput& out, const std::string& name, double q) {
  auto it = out.samples.find(name);
  return it == out.samples.end() ? 0 : BlockQuantile(it->second, q);
}

double OpsPerSecond(const RunOutput& run) {
  const double op_s = Median(run.op_s);
  return op_s > 0 ? run.units_per_op / op_s : 0;
}

std::vector<Metric> EndToEndMetrics(const RunOutput& setup, const RunOutput& run,
                                    double setup_s) {
  RunOutput all = setup;
  all.Merge(run);
  const uint64_t attempted = std::max<uint64_t>(all.attempted, 1);
  return {
      {"setup_s", setup_s, "s"},
      {"plan_s", SampleQuantile(all, "plan_s", 0.5), "s"},
      {"embed_ms_p50", SampleQuantile(all, "embed_ms", 0.5), "ms"},
      {"embed_ms_p90", SampleQuantile(all, "embed_ms", 0.9), "ms"},
      {"detect_ms_p50", SampleQuantile(all, "detect_ms", 0.5), "ms"},
      {"detect_ms_p90", SampleQuantile(all, "detect_ms", 0.9), "ms"},
      {"ops_per_s", OpsPerSecond(run), "1/s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"ok_frac",
       1.0 - static_cast<double>(all.failed) / static_cast<double>(attempted),
       "frac"},
  };
}

std::vector<Metric> PerLayerMetrics(const std::string& workload,
                                    const RunOutput& traced,
                                    const RunOutput& replay,
                                    const std::vector<Span>& spans,
                                    const std::vector<int64_t>& self_ns) {
  const RequestTotals totals = TotalsByRequest(spans, self_ns);
  auto self = [&](const char* name) {
    return MedianPerRequest(totals, name, [](const NameTotals& t) { return t.self_s; });
  };
  auto total = [&](const char* name) {
    return MedianPerRequest(totals, name, [](const NameTotals& t) { return t.total_s; });
  };
  auto calls = [&](const char* name) {
    return MedianPerRequest(totals, name, [](const NameTotals& t) {
      return static_cast<double>(t.calls);
    });
  };
  auto items = [&](const char* name) {
    return MedianPerRequest(totals, name, [](const NameTotals& t) {
      return static_cast<double>(t.items);
    });
  };
  auto layer = [&](const char* name) { return LayerMedian(traced, name); };

  double self_sum = 0;
  for (int64_t ns : self_ns) self_sum += static_cast<double>(ns) * 1e-9;
  const double trace_s = self("fingerprint.trace");
  const double throughput = OpsPerSecond(replay);

  std::vector<Metric> m = {
      {"structure.canon_hit_rate", layer("structure.canon_hit_rate"), "frac"},
      {"structure.canon_distinct_forms", layer("structure.canon_distinct_forms"), "count"},
      {"structure.canon_bytes", layer("structure.canon_bytes"), "bytes"},
      {"answers.index_build_s", self("answers.index_build"), "s"},
      {"answers.serve_s", total("answers.serve"), "s"},
      {"answers.serve_calls", calls("answers.serve"), "count"},
      {"answers.params_served", items("answers.serve"), "count"},
      {"plan.self_s", self("plan"), "s"},
      {"plan.ntp", layer("plan.ntp"), "count"},
      {"plan.candidate_pairs", layer("plan.candidate_pairs"), "count"},
      {"plan.pairs", layer("plan.pairs"), "count"},
      {"plan.pair_yield", layer("plan.pair_yield"), "frac"},
      {"plan.tries", layer("plan.tries"), "count"},
      {"detect.decode_self_s", self("detect"), "s"},
      {"detect.pairs_erased_frac", layer("detect.pairs_erased_frac"), "frac"},
      {"coding.corrected", layer("coding.corrected"), "count"},
      {"coding.filled", layer("coding.filled"), "count"},
      {"fingerprint.embed_s", self("fingerprint.embed"), "s"},
      {"fingerprint.trace_s", trace_s, "s"},
      {"fingerprint.candidates_per_s",
       trace_s > 0 ? layer("fingerprint.candidates") / trace_s : 0, "1/s"},
      {"fingerprint.pruned_frac", layer("fingerprint.pruned_frac"), "frac"},
      {"stream.generate_s", self("stream.generate"), "s"},
      {"stream.ingest_s", self("stream.ingest"), "s"},
      {"stream.seal_s", self("stream.seal"), "s"},
      {"stream.tick_s", self("stream.tick"), "s"},
      {"stream.fallback_epochs", layer("stream.fallback_epochs"), "count"},
      {"stream.applied", layer("stream.applied"), "count"},
  };
  for (size_t code = 1; code < qpwm::kNumStatusCodes; ++code) {
    const std::string name = std::string("stream.rejected_by_code.") +
                             qpwm::StatusCodeName(static_cast<qpwm::StatusCode>(code));
    m.push_back({name, LayerMedian(traced, name), "count"});
  }
  const bool stream = workload == "stream-soak";
  const bool suspects = workload == "detect-trace" || workload == "tree-detect";
  std::vector<Metric> rest = {
      {"stream.admit_frac", layer("stream.admit_frac"), "frac"},
      {"stream.retried", layer("stream.retried"), "count"},
      {"stream.gave_up", layer("stream.gave_up"), "count"},
      {"tree.plan_s", self("tree.plan"), "s"},
      {"tree.regions_paired", layer("tree.regions_paired"), "count"},
      {"tree.regions_unpaired", layer("tree.regions_unpaired"), "count"},
      {"tree.serve_s", total("tree.serve"), "s"},
      {"trace_ms_p50", SampleQuantile(replay, "trace_ms", 0.5), "ms"},
      {"trace_ms_p90", SampleQuantile(replay, "trace_ms", 0.9), "ms"},
      {"seal_ms_p50", SampleQuantile(replay, "seal_ms", 0.5), "ms"},
      {"seal_ms_p90", SampleQuantile(replay, "seal_ms", 0.9), "ms"},
      {"updates_per_s", stream ? throughput : 0, "1/s"},
      {"suspects_per_s", suspects ? throughput : 0, "1/s"},
      {"trace.overhead_frac",
       replay.timed_s > 0 ? traced.timed_s / replay.timed_s - 1.0 : 0, "frac"},
      {"trace.self_coverage", traced.timed_s > 0 ? self_sum / traced.timed_s : 0,
       "frac"},
      {"trace.spans", static_cast<double>(spans.size()), "count"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << JsonNumber(m.value) << " " << m.unit
              << "\n";
  }
}

std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": " +
           JsonString(metrics[i].unit) + "}";
  }
  return out + "}}";
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) return Usage();
  std::unique_ptr<Workload> wl = MakeWorkload(args.workload);
  if (!wl) return Usage();

  // Isolation: every workload starts from a freshly sized pool, and every
  // set-up repetition and timed loop from an empty canon cache, so
  // workloads run alone or in any order read the same.
  const size_t hardware = std::max<size_t>(std::thread::hardware_concurrency(), 1);
  const size_t pool = std::min(hardware, wl->MaxThreads());
  qpwm::SetParallelThreads(pool);

  const std::string provenance =
      std::string("{\"workload\": ") + JsonString(args.workload) +
      ", \"seed\": " + std::to_string(args.seed) +
      ", \"seconds\": " + JsonNumber(args.seconds) +
      ", \"trace\": " + (args.trace ? "1" : "0") +
      ", \"hardware_threads\": " + std::to_string(hardware) +
      ", \"pool_threads\": " + std::to_string(qpwm::ParallelThreads()) +
      ", \"build_type\": " + JsonString(QPWM_BENCH_BUILD_TYPE) +
      ", \"compiler\": " + JsonString(QPWM_BENCH_COMPILER) +
      ", \"commit\": " + JsonString(args.commit) + "}";
  std::cout << "provenance " << provenance << "\n";

  RunOutput setup;
  std::vector<double> setup_times;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    qpwm::CanonCache::Global().Clear();
    const Stopwatch sw;
    wl->Setup(args.seed, setup);
    setup_times.push_back(sw.Seconds());
    ReleaseFreeMemory();
  }
  const double setup_s = Median(setup_times);

  // One untimed request first, so the timed loops (and the traced/untraced
  // comparison) do not charge first-touch allocation to whichever runs first.
  RunOutput warmup;
  Limit one;
  one.exact_ops = 1;
  wl->Run(one, nullptr, warmup);
  warmup.samples.clear();
  warmup.layer.clear();
  setup.Merge(warmup);
  ReleaseFreeMemory();

  Limit limit;
  limit.seconds = args.seconds;
  limit.max_seconds = 1.5 * args.seconds + 10;
  limit.min_ops = wl->MinOps();

  std::vector<Metric> metrics;
  RunOutput result;
  if (!args.trace) {
    qpwm::CanonCache::Global().Clear();
    wl->Run(limit, nullptr, result);
    metrics = EndToEndMetrics(setup, result, setup_s);
    result.Merge(setup);
  } else {
    SpanRecorder rec;
    RunOutput traced;
    qpwm::CanonCache::Global().Clear();
    wl->Run(limit, &rec, traced);
    const std::vector<Span> spans = rec.spans();
    const std::vector<int64_t> self_ns = SelfTimesNs(spans);

    Limit replay_limit;
    replay_limit.exact_ops = traced.ops;
    RunOutput replay;
    qpwm::CanonCache::Global().Clear();
    wl->Run(replay_limit, nullptr, replay);

    uint64_t mismatches = 0;
    const size_t n = std::max(traced.outputs.size(), replay.outputs.size());
    for (size_t i = 0; i < n; ++i) {
      if (i >= traced.outputs.size() || i >= replay.outputs.size() ||
          traced.outputs[i] != replay.outputs[i]) {
        ++mismatches;
      }
    }
    metrics = PerLayerMetrics(args.workload, traced, replay, spans, self_ns);
    result = traced;
    result.Merge(replay);
    result.Merge(setup);
    result.attempted += n;
    for (uint64_t i = 0; i < mismatches; ++i) {
      result.Fail("traced and untraced outputs differ");
    }
    if (!args.out_dir.empty()) {
      const std::string path =
          args.out_dir + "/" + args.workload + "-seed" + std::to_string(args.seed) +
          ".spans.json";
      std::ofstream f(path);
      f << "{\"provenance\": " << provenance << ",\n\"trace\": "
        << SpansToJson(spans, self_ns) << "}\n";
      if (!f) std::cerr << "warning: cannot write " << path << "\n";
    }
  }
  const bool correct = result.failed == 0;

  std::cout << "workload " << args.workload << ": " << result.attempted
            << " operations checked, " << result.failed << " failed\n";
  for (const std::string& f : result.failures) std::cout << "  FAIL: " << f << "\n";
  PrintMetrics(metrics);
  std::cout << ResultLine(correct, std::max<uint64_t>(result.attempted, 1),
                          result.failed, metrics)
            << std::endl;
  return 0;
}

}  // namespace
}  // namespace qpwm_bench

int main(int argc, char** argv) { return qpwm_bench::Main(argc, argv); }
