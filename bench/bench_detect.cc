// bench_detect — the detection-side perf baseline: the parallel
// multi-suspect fan-out against a serial detection loop.
//
// Detection is the serving hot path once a scheme is deployed: the detector
// replans once, then reads pair weights through query answers for every
// suspect copy (Remark 2's fingerprint tracing runs this against up to 2^l
// marked copies). Each detection answers every distinct witness parameter
// once (one AnswerAllFlat round trip) and reads the pairs from those rows.
//
// Instance: bounded-degree graph with a DistanceQuery ball (answer sets of
// a few dozen rows, shared by many pair reads).
//
// DetectMany is held against the serial loop of single-suspect detections —
// the honest bar for the thread pool, reported as
// parallel_faster_than_serial. Detection output (marks, margins, erasure
// counts) is verified bit-identical across thread counts; the run fails if
// it is not.
//
// --json[=PATH] writes/merges the "detect_scale" section of
// BENCH_detect.json so future PRs have a trajectory to beat.
//
// --sweep[=N1,N2,...] scales the fan-out to 10^6-element instances (qrho=2,
// a few suspects) with flat-storage bytes per tuple and process peak RSS per
// point; sizes are visited ascending so each RSS sample is dominated by the
// current instance.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "qpwm/core/adversarial.h"
#include "qpwm/core/answers.h"
#include "qpwm/core/local_scheme.h"
#include "qpwm/logic/query.h"
#include "qpwm/structure/generators.h"
#include "qpwm/util/parallel.h"
#include "qpwm/util/random.h"
#include "qpwm/util/str.h"
#include "qpwm/util/table.h"

using namespace qpwm;

namespace {

double TimeMs(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

bool SameDetection(const AdversarialDetection& a, const AdversarialDetection& b) {
  if (a.mark.size() != b.mark.size() || a.margins != b.margins ||
      a.min_margin != b.min_margin || a.group_sizes != b.group_sizes ||
      a.bit_erased != b.bit_erased || a.pairs_erased != b.pairs_erased ||
      a.bits_recovered != b.bits_recovered || a.bits_erased != b.bits_erased) {
    return false;
  }
  for (size_t i = 0; i < a.mark.size(); ++i) {
    if (a.mark.Get(i) != b.mark.Get(i)) return false;
  }
  return true;
}

struct FanoutResult {
  size_t threads = 0;
  double ms = 0;
  bool identical = true;
};

struct DetectSweepPoint {
  size_t n = 0;
  size_t tuples = 0;
  size_t pairs = 0;
  size_t suspects = 0;
  double serial_optimized_ms = 0;
  double fanout_1t_ms = 0;
  double fanout_8t_ms = 0;
  size_t structure_bytes = 0;
  uint64_t peak_rss_kb = 0;
  bool identical = true;
};

std::vector<size_t> ParseSizeList(const std::string& list) {
  std::vector<size_t> out;
  size_t pos = 0;
  while (pos < list.size()) {
    size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    out.push_back(std::stoul(list.substr(pos, comma - pos)));
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // Defaults picked for a serving-heavy regime: distance-4 balls on a
  // degree-4 graph give large answer sets with ~7x witness sharing, the
  // regime batching exists for (big answers re-served per pair element).
  size_t n = 2000;
  size_t k = 4;
  uint32_t qrho = 4;
  size_t num_suspects = 32;
  size_t redundancy = 5;
  int reps = 3;
  double epsilon = 0.02;
  std::optional<std::string> json_path;
  std::vector<size_t> sweep_sizes;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json") {
      json_path = "BENCH_detect.json";
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg == "--sweep") {
      sweep_sizes = {50000, 200000, 1000000};
    } else if (arg.rfind("--sweep=", 0) == 0) {
      sweep_sizes = ParseSizeList(arg.substr(8));
    } else if (arg == "--n" && i + 1 < argc) {
      n = std::stoul(argv[++i]);
    } else if (arg == "--k" && i + 1 < argc) {
      k = std::stoul(argv[++i]);
    } else if (arg == "--qrho" && i + 1 < argc) {
      qrho = static_cast<uint32_t>(std::stoul(argv[++i]));
    } else if (arg == "--suspects" && i + 1 < argc) {
      num_suspects = std::stoul(argv[++i]);
    } else if (arg == "--redundancy" && i + 1 < argc) {
      redundancy = std::stoul(argv[++i]);
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::stoi(argv[++i]);
    } else if (arg == "--epsilon" && i + 1 < argc) {
      epsilon = std::stod(argv[++i]);
    } else {
      std::cerr << "usage: bench_detect [--json[=PATH]] [--n N] [--k K] "
                   "[--qrho R] [--suspects S] [--redundancy R] [--reps R] "
                   "[--epsilon E] [--sweep[=N1,N2,...]]\n";
      return 2;
    }
  }

  std::cout << "=== bench_detect: parallel multi-suspect detection (n=" << n
            << ", k=" << k << ", query=dist<=" << qrho
            << ", suspects=" << num_suspects << ") ===\n";

  // One planned scheme; the detection workload reads through it.
  Rng rng(42);
  Structure g = RandomBoundedDegreeGraph(n, k, 3 * n, false, rng);
  DistanceQuery query(qrho);
  SetParallelThreads(1);
  QueryIndex index(g, query, AllParams(g, 1));
  WeightMap weights = RandomWeights(g, 1000, 9999, rng);

  LocalSchemeOptions opts;
  opts.epsilon = epsilon;
  opts.key = {42, 99};
  opts.encoding = PairEncoding::kAntipodal;
  LocalScheme scheme = LocalScheme::Plan(index, opts).ValueOrDie();
  AdversarialScheme adv(scheme, redundancy);
  if (adv.CapacityBits() == 0) {
    std::cerr << "FAIL: planned scheme has zero capacity\n";
    return 1;
  }

  // Witness sharing: every detection run performs 2 * pairs element reads,
  // each through the first parameter containing the element, and answers
  // each distinct witness once.
  const WitnessPlan& plan = scheme.witness_plan();
  const double sharing =
      plan.params.empty() ? 0.0
                          : static_cast<double>(plan.reads.size()) /
                                static_cast<double>(plan.params.size());
  std::cout << "planned " << scheme.CapacityBits() << " pairs ("
            << adv.CapacityBits() << " message bits): " << plan.reads.size()
            << " element reads via " << plan.params.size()
            << " distinct witness params (sharing " << FmtDouble(sharing, 1)
            << "x)\n";

  // One marked copy per suspect, each carrying a distinct message — the
  // fingerprinting scenario.
  std::vector<BitVec> messages;
  std::vector<std::unique_ptr<HonestServer>> servers;
  std::vector<const AnswerServer*> suspects;
  for (size_t s = 0; s < num_suspects; ++s) {
    BitVec msg(adv.CapacityBits());
    Rng msg_rng(1000 + s);
    for (size_t i = 0; i < msg.size(); ++i) msg.Set(i, msg_rng.Coin());
    servers.push_back(std::make_unique<HonestServer>(index, adv.Embed(weights, msg)));
    suspects.push_back(servers.back().get());
    messages.push_back(std::move(msg));
  }

  // The bar for the thread pool: a serial loop of single-suspect detections.
  std::vector<AdversarialDetection> serial;
  double serial_optimized_ms = 0;
  for (int rep = 0; rep < reps; ++rep) {
    const double ms = TimeMs([&] {
      serial.clear();
      for (const AnswerServer* s : suspects) {
        serial.push_back(adv.Detect(weights, *s).ValueOrDie());
      }
    });
    serial_optimized_ms = rep == 0 ? ms : std::min(serial_optimized_ms, ms);
  }
  for (size_t i = 0; i < serial[0].mark.size(); ++i) {
    if (serial[0].mark.Get(i) != messages[0].Get(i)) {
      std::cerr << "FAIL: clean detection recovered a wrong bit\n";
      return 1;
    }
  }

  std::vector<FanoutResult> fanout;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SetParallelThreads(threads);
    FanoutResult r;
    r.threads = threads;
    std::vector<AdversarialDetection> out;
    for (int rep = 0; rep < reps; ++rep) {
      const double ms = TimeMs([&] { out = adv.DetectMany(weights, suspects); });
      r.ms = rep == 0 ? ms : std::min(r.ms, ms);
    }
    r.identical = out.size() == serial.size();
    for (size_t s = 0; r.identical && s < out.size(); ++s) {
      r.identical = SameDetection(serial[s], out[s]);
    }
    fanout.push_back(r);
  }
  SetParallelThreads(0);  // restore the env/hardware default

  TextTable multi(StrCat("Multi-suspect tracing, ", num_suspects,
                         " marked copies (serial loop: ",
                         FmtDouble(serial_optimized_ms, 2), " ms)"));
  multi.SetHeader({"threads", "ms", "vs serial", "suspects/s", "identical"});
  for (const FanoutResult& r : fanout) {
    multi.AddRow({StrCat(r.threads), FmtDouble(r.ms, 2),
                  FmtDouble(serial_optimized_ms / r.ms, 2),
                  FmtDouble(1000.0 * static_cast<double>(num_suspects) / r.ms, 1),
                  r.identical ? "yes" : "NO"});
  }
  multi.Print(std::cout);
  const double fanout_8t_ms = fanout.back().ms;
  const bool parallel_faster_than_serial = fanout_8t_ms < serial_optimized_ms;
  std::cout << "hardware threads visible: " << std::thread::hardware_concurrency()
            << "\n";
  std::cout << "serial loop (1 thread): "
            << FmtDouble(serial_optimized_ms, 2) << " ms; DetectMany@8T "
            << FmtDouble(fanout_8t_ms, 2) << " ms -> parallel faster: "
            << (parallel_faster_than_serial ? "yes" : "no")
            << " (expect no on a single hardware thread; the perf CI job "
               "checks this multicore).\n";

  bool all_identical = true;
  for (const FanoutResult& r : fanout) all_identical &= r.identical;
  if (!all_identical) {
    std::cerr << "FAIL: detection output differs across threads\n";
    return 1;
  }

  // --- Scaling sweep ------------------------------------------------------
  // Fan-out tracing at large n. Distance-2 balls keep the answer index a
  // small constant per parameter so the instance — not the index — dominates
  // memory; at most 8 suspects keep the marked-copy weight maps bounded.
  // Each point runs once (no reps): plan, embed, then the serial optimized
  // loop vs DetectMany at 1 and 8 threads, outputs compared exactly.
  const uint32_t kSweepQrho = 2;
  std::vector<DetectSweepPoint> sweep;
  for (size_t sn : sweep_sizes) {
    DetectSweepPoint pt;
    pt.n = sn;
    pt.suspects = std::min<size_t>(num_suspects, 8);
    Rng srng(42);
    Structure sg = RandomBoundedDegreeGraph(sn, k, 3 * sn, false, srng);
    for (size_t r = 0; r < sg.num_relations(); ++r) pt.tuples += sg.relation(r).size();
    pt.structure_bytes = sg.BytesResident();
    DistanceQuery squery(kSweepQrho);
    SetParallelThreads(0);
    QueryIndex sindex(sg, squery, AllParams(sg, 1));
    Rng wrng(7);
    WeightMap sweights = RandomWeights(sg, 1000, 9999, wrng);
    LocalSchemeOptions sopts;
    sopts.epsilon = epsilon;
    sopts.key = {42, 99};
    sopts.encoding = PairEncoding::kAntipodal;
    LocalScheme sscheme = LocalScheme::Plan(sindex, sopts).ValueOrDie();
    AdversarialScheme sadv(sscheme, redundancy);
    pt.pairs = sscheme.CapacityBits();
    std::vector<std::unique_ptr<HonestServer>> servers;
    std::vector<const AnswerServer*> ptrs;
    for (size_t s = 0; s < pt.suspects; ++s) {
      BitVec msg(sadv.CapacityBits());
      Rng msg_rng(1000 + s);
      for (size_t i = 0; i < msg.size(); ++i) msg.Set(i, msg_rng.Coin());
      servers.push_back(
          std::make_unique<HonestServer>(sindex, sadv.Embed(sweights, msg)));
      ptrs.push_back(servers.back().get());
    }
    std::vector<AdversarialDetection> ref;
    pt.serial_optimized_ms = TimeMs([&] {
      for (const AnswerServer* s : ptrs) {
        ref.push_back(sadv.Detect(sweights, *s).ValueOrDie());
      }
    });
    for (size_t threads : {size_t{1}, size_t{8}}) {
      SetParallelThreads(threads);
      std::vector<AdversarialDetection> out;
      const double ms = TimeMs([&] { out = sadv.DetectMany(sweights, ptrs); });
      (threads == 1 ? pt.fanout_1t_ms : pt.fanout_8t_ms) = ms;
      pt.identical &= out.size() == ref.size();
      for (size_t s = 0; pt.identical && s < out.size(); ++s) {
        pt.identical = SameDetection(ref[s], out[s]);
      }
    }
    SetParallelThreads(0);
    pt.peak_rss_kb = PeakRssKb();
    sweep.push_back(pt);
  }
  if (!sweep.empty()) {
    TextTable st(StrCat("DetectMany scaling sweep (qrho=", kSweepQrho,
                        "; serial bar = loop of optimized single-suspect "
                        "detections)"));
    st.SetHeader({"n", "tuples", "pairs", "suspects", "serial ms", "1T ms",
                  "8T ms", "8T vs serial", "B/tuple", "peak RSS MB", "identical"});
    for (const DetectSweepPoint& pt : sweep) {
      st.AddRow({StrCat(pt.n), StrCat(pt.tuples), StrCat(pt.pairs),
                 StrCat(pt.suspects), FmtDouble(pt.serial_optimized_ms, 1),
                 FmtDouble(pt.fanout_1t_ms, 1), FmtDouble(pt.fanout_8t_ms, 1),
                 FmtDouble(pt.serial_optimized_ms / pt.fanout_8t_ms, 2),
                 FmtDouble(static_cast<double>(pt.structure_bytes) /
                               static_cast<double>(pt.tuples), 1),
                 FmtDouble(static_cast<double>(pt.peak_rss_kb) / 1024.0, 1),
                 pt.identical ? "yes" : "NO"});
    }
    st.Print(std::cout);
    bool sweep_identical = true;
    for (const DetectSweepPoint& pt : sweep) sweep_identical &= pt.identical;
    if (!sweep_identical) {
      std::cerr << "FAIL: sweep detections differ across thread counts\n";
      return 1;
    }
  }

  if (json_path) {
    JsonWriter w;
    w.BeginObject();
    w.Key("instance").BeginObject();
    w.Key("n").UInt(n);
    w.Key("k").UInt(k);
    w.Key("query_rho").UInt(qrho);
    w.Key("num_params").UInt(index.num_params());
    w.Key("num_active").UInt(index.num_active());
    w.Key("pairs").UInt(scheme.CapacityBits());
    w.Key("capacity_bits").UInt(adv.CapacityBits());
    w.Key("redundancy").UInt(redundancy);
    w.Key("suspects").UInt(num_suspects);
    w.EndObject();
    w.Key("hardware_threads").UInt(std::thread::hardware_concurrency());
    w.Key("reps").Int(reps);
    w.Key("multi_suspect").BeginObject();
    w.Key("serial_optimized_ms").Double(serial_optimized_ms);
    w.Key("parallel_faster_than_serial").Bool(parallel_faster_than_serial);
    w.Key("runs").BeginArray();
    for (const FanoutResult& r : fanout) {
      w.BeginObject();
      w.Key("threads").UInt(r.threads);
      w.Key("ms").Double(r.ms);
      w.Key("speedup_vs_serial").Double(serial_optimized_ms / r.ms);
      w.Key("suspects_per_sec")
          .Double(1000.0 * static_cast<double>(num_suspects) / r.ms);
      w.Key("identical_to_serial").Bool(r.identical);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    if (!sweep.empty()) {
      w.Key("sweep").BeginArray();
      for (const DetectSweepPoint& pt : sweep) {
        w.BeginObject();
        w.Key("n").UInt(pt.n);
        w.Key("k").UInt(k);
        w.Key("query_rho").UInt(kSweepQrho);
        w.Key("tuples").UInt(pt.tuples);
        w.Key("pairs").UInt(pt.pairs);
        w.Key("suspects").UInt(pt.suspects);
        w.Key("serial_optimized_ms").Double(pt.serial_optimized_ms);
        w.Key("fanout_1t_ms").Double(pt.fanout_1t_ms);
        w.Key("fanout_8t_ms").Double(pt.fanout_8t_ms);
        w.Key("speedup_8t_vs_serial")
            .Double(pt.serial_optimized_ms / pt.fanout_8t_ms);
        w.Key("parallel_faster_than_serial")
            .Bool(pt.fanout_8t_ms < pt.serial_optimized_ms);
        w.Key("identical_across_threads").Bool(pt.identical);
        w.Key("structure_bytes").UInt(pt.structure_bytes);
        w.Key("bytes_per_tuple")
            .Double(pt.tuples == 0 ? 0.0
                                   : static_cast<double>(pt.structure_bytes) /
                                         static_cast<double>(pt.tuples));
        w.Key("peak_rss_kb").UInt(pt.peak_rss_kb);
        w.EndObject();
      }
      w.EndArray();
    }
    w.EndObject();
    if (!UpdateBenchJsonSection(*json_path, "detect_scale", w.str())) {
      std::cerr << "FAIL: cannot write " << *json_path << "\n";
      return 1;
    }
    std::cout << "wrote section \"detect_scale\" to " << *json_path << "\n";
  }
  return 0;
}
