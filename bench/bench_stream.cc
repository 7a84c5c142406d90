// bench_stream — the update-stream soak driver: a long-running watermarked
// server ingesting a seeded honest + hostile mutation mix while epoch-
// snapshot detection runs concurrently against it.
//
// Per scheduling window, two lanes run in parallel: the write lane generates
// and submits `--window` updates to the StreamServer; the detect lane runs
// one EpochDetector tick against the snapshot published at the previous
// epoch seal (never the live state — the whole point of epoch snapshots).
// After both lanes join, the staged structural batch is admitted through the
// Theorem 8 type gate and the next epoch is published.
//
// Everything that reaches BENCH_stream.json is deterministic for a fixed
// seed at any --threads value: traffic and faults are seeded, latency is
// measured in virtual ticks (answer rows + penalties + backoff), and the two
// lanes share no mutable state. Wall-clock throughput is printed to stdout
// only. The run fails (exit 1) if the accounting invariant breaks, if any
// detect pass crashes out, or — unless --no-require-match — if the final
// fault-free audit is not a MATCH.
//
// --json[=PATH] writes BENCH_stream.json: the run's config and report under
// "stream_soak", with a top-level schema_version.
#include <chrono>
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "qpwm/coding/coded_watermark.h"
#include "qpwm/core/adversarial.h"
#include "qpwm/core/local_scheme.h"
#include "qpwm/logic/query.h"
#include "qpwm/stream/detect_loop.h"
#include "qpwm/stream/report.h"
#include "qpwm/stream/stream_server.h"
#include "qpwm/stream/update.h"
#include "qpwm/structure/generators.h"
#include "qpwm/util/json.h"
#include "qpwm/util/parallel.h"
#include "qpwm/util/random.h"
#include "qpwm/util/str.h"

using namespace qpwm;

namespace {

std::string FmtFixed4(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

int Usage() {
  std::cerr << "usage: bench_stream [--json[=PATH]] [--updates N] [--window W]\n"
               "                    [--hostile F] [--seed S] [--threads T]\n"
               "                    [--n N] [--redundancy R] [--codec SPEC]\n"
               "                    [--epsilon E] [--no-require-match]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  size_t updates = 6000;
  size_t window = 300;
  double hostile = 0.15;
  uint64_t seed = 42;
  size_t threads = 0;  // 0 = leave the env/hardware default
  size_t n = 600;
  size_t redundancy = 5;
  std::string codec_spec = "hamming";
  double epsilon = 0.34;
  bool require_match = true;
  std::optional<std::string> json_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json") {
      json_path = "BENCH_stream.json";
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg == "--updates" && i + 1 < argc) {
      updates = std::stoul(argv[++i]);
    } else if (arg == "--window" && i + 1 < argc) {
      window = std::stoul(argv[++i]);
    } else if (arg == "--hostile" && i + 1 < argc) {
      hostile = std::stod(argv[++i]);
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::stoull(argv[++i]);
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = std::stoul(argv[++i]);
    } else if (arg == "--n" && i + 1 < argc) {
      n = std::stoul(argv[++i]);
    } else if (arg == "--redundancy" && i + 1 < argc) {
      redundancy = std::stoul(argv[++i]);
    } else if (arg == "--codec" && i + 1 < argc) {
      codec_spec = argv[++i];
    } else if (arg == "--epsilon" && i + 1 < argc) {
      epsilon = std::stod(argv[++i]);
    } else if (arg == "--no-require-match") {
      require_match = false;
    } else {
      return Usage();
    }
  }
  if (window == 0 || updates == 0 || n < 8) return Usage();
  if (threads > 0) SetParallelThreads(threads);

  std::cout << "=== bench_stream: detect-under-write soak (n=" << n
            << ", updates=" << updates << ", window=" << window
            << ", hostile=" << FmtFixed4(hostile) << ", seed=" << seed
            << ", threads=" << ParallelThreads() << ") ===\n";

  // Workload: a symmetric cycle — 2-regular, so honest double-edge swaps
  // are usually type-preserving (Theorem 8 admits them) while any hostile
  // degree-changing edit trips the gate.
  Rng rng(seed);
  Structure g = CycleGraph(n, /*symmetric=*/true);
  DistanceQuery query(1);
  QueryIndex index(g, query, AllParams(g, 1));
  WeightMap weights = RandomWeights(g, 1000, 9999, rng);

  LocalSchemeOptions opts;
  opts.epsilon = epsilon;
  opts.key = {seed, 99};
  opts.encoding = PairEncoding::kAntipodal;
  Result<LocalScheme> planned = LocalScheme::Plan(index, opts);
  if (!planned.ok()) {
    std::cerr << "FAIL: planning: " << planned.status() << "\n";
    return 1;
  }
  const LocalScheme& scheme = planned.value();
  AdversarialScheme adv(scheme, redundancy);
  Result<std::unique_ptr<MessageCodec>> codec = MakeCodec(codec_spec);
  if (!codec.ok()) {
    std::cerr << "FAIL: " << codec.status() << "\n";
    return 2;
  }
  CodedWatermark coded(adv, *codec.value());
  if (coded.PayloadBits() == 0) {
    std::cerr << "FAIL: zero payload capacity (pairs=" << scheme.CapacityBits()
              << ", redundancy=" << redundancy << ")\n";
    return 1;
  }

  BitVec payload(coded.PayloadBits());
  Rng payload_rng(seed + 1);
  for (size_t i = 0; i < payload.size(); ++i) payload.Set(i, payload_rng.Coin());
  WeightMap marked = coded.Embed(weights, payload);
  std::cout << "planned " << scheme.CapacityBits() << " pairs -> "
            << adv.CapacityBits() << " channel bits -> " << coded.PayloadBits()
            << " payload bits (codec " << codec.value()->Name()
            << ", redundancy " << redundancy << ")\n";

  StreamServer server(scheme, weights, std::move(marked));
  UpdateMixOptions mix;
  mix.hostile_frac = hostile;
  // Honest structural churn (admitted 2-swaps) is what genuinely erodes
  // pair witnesses over time — hostile structural traffic is quarantined.
  // Real maintenance traffic is overwhelmingly weight updates, so keep the
  // admitted swap rate low enough that the mark survives the whole soak
  // while the per-epoch survival curve still shows pairs_erased climbing.
  mix.honest_structural_frac = 0.01;
  UpdateGenerator generator(seed + 2, mix);
  EpochDetector detector(coded, payload, seed + 3);

  const size_t windows = (updates + window - 1) / window;
  std::shared_ptr<const StreamSnapshot> snap = server.snapshot();
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t w = 0; w < windows; ++w) {
    const size_t count = std::min(window, updates - w * window);
    // Two lanes, no shared mutable state: the write lane owns the server and
    // generator, the detect lane reads the previous epoch's frozen snapshot.
    // Serial execution (1 thread) runs lane 0 then lane 1 — identical
    // results by construction.
    ParallelMap<int>(2, [&](size_t lane) {
      if (lane == 0) {
        for (size_t j = 0; j < count; ++j) {
          server.Ingest(generator.Next(server.structure()));
        }
      } else {
        detector.Tick(*snap);
      }
      return 0;
    });
    snap = server.SealEpoch();
  }
  const auto t1 = std::chrono::steady_clock::now();
  server.Freeze();

  const DetectOutcome audit = detector.Audit(*snap);
  const StreamReport report =
      BuildStreamReport(generator, server, detector, audit);

  const double secs = std::chrono::duration<double>(t1 - t0).count();
  const StreamCounters& c = report.counters;
  std::cout << "soak: " << report.generated << " updates ("
            << report.hostile_generated << " hostile) over "
            << c.epochs_sealed << " epochs; applied " << c.applied
            << ", quarantined " << c.rejected << " (fallback epochs "
            << c.fallback_epochs << ")\n";
  std::cout << "detection: " << report.passes_completed << " passes, retried "
            << report.retried << ", gave up " << report.gave_up
            << "; latency ticks p50/p90/p99 = " << report.latency.p50 << "/"
            << report.latency.p90 << "/" << report.latency.p99 << "\n";
  std::cout << "final audit @ epoch " << audit.epoch << ": "
            << VerdictKindName(audit.verdict)
            << " (payload_correct=" << (audit.payload_correct ? "yes" : "no")
            << ", log10_fp=" << FmtFixed4(audit.log10_fp_bound)
            << ", pairs_erased=" << audit.pairs_erased << ")\n";
  char wall[128];
  std::snprintf(wall, sizeof(wall), "%.1f ms, %.0f updates/s", secs * 1e3,
                static_cast<double>(report.generated) / secs);
  std::cout << "wall-clock (stdout only, excluded from JSON): " << wall
            << "\n";

  if (!report.Accounted()) {
    std::cerr << "FAIL: accounting invariant broken (generated="
              << report.generated << ", submitted=" << c.submitted
              << ", applied=" << c.applied << ", rejected=" << c.rejected
              << ")\n";
    return 1;
  }
  if (require_match && (audit.verdict != VerdictKind::kMatch ||
                        !audit.payload_correct)) {
    std::cerr << "FAIL: final audit is not a correct MATCH\n";
    return 1;
  }

  if (json_path) {
    JsonWriter w;
    w.BeginObject();
    w.Key("schema_version").Int(1);
    w.Key("stream_soak").BeginObject();
    w.Key("config").BeginObject();
    w.Key("n").UInt(n);
    w.Key("updates").UInt(updates);
    w.Key("window").UInt(window);
    w.Key("hostile_frac").Fixed4(hostile);
    w.Key("seed").UInt(seed);
    w.Key("redundancy").UInt(redundancy);
    w.Key("codec").String(codec.value()->Name());
    w.Key("epsilon").Fixed4(epsilon);
    w.Key("pairs").UInt(scheme.CapacityBits());
    w.Key("channel_bits").UInt(adv.CapacityBits());
    w.Key("payload_bits").UInt(coded.PayloadBits());
    w.EndObject();
    w.Key("report");
    WriteStreamReportJson(w, report);
    w.EndObject();
    w.EndObject();
    if (!WriteJsonFile(*json_path, w)) {
      std::cerr << "FAIL: cannot write " << *json_path << "\n";
      return 1;
    }
    std::cout << "wrote " << *json_path << "\n";
  }
  return 0;
}
