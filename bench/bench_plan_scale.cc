// bench_plan_scale — the plan-time perf baseline for the parallel, memoized
// planning layer (thread pool + canonical-form cache).
//
// Instance: the E6-style bounded-degree graph (RandomBoundedDegreeGraph,
// degree k, adjacency query over all unary parameters) with rho = 2, the
// regime the paper's Theorem 3 targets: neighborhoods are tiny and highly
// repetitive (ntp << |domain|), so canonicalization memoizes extremely well.
//
// Every plan starts from a cleared canonical-form cache, so its cache hits are
// intra-plan. Reported speedups (`speedup_vs_cached_serial`) are against the
// 1-thread plan and isolate the thread-pool contribution (≈1.0 on a single
// hardware thread; see docs/perf.md). The cache's own win is measured at the
// typer level, on a grid (the `grid_typing` section).
//
// --json[=PATH] writes/merges the "plan_scale" section of BENCH_plan.json so
// future PRs have a trajectory to beat.
//
// --sweep[=N1,N2,...] additionally scales the typing hot loop (TypeAll over
// the full unary domain — the dominant planning cost) to 10^6-element
// instances, reporting per-point thread scaling, flat-storage bytes per
// tuple, and the process peak RSS. Sizes are visited ascending so each RSS
// sample is dominated by the current instance.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "qpwm/core/local_scheme.h"
#include "qpwm/logic/query.h"
#include "qpwm/structure/canon_cache.h"
#include "qpwm/structure/generators.h"
#include "qpwm/structure/typemap.h"
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

struct RunResult {
  size_t threads = 0;
  double index_ms = 0;
  double plan_ms = 0;
  CanonCache::Stats cache;
  bool identical = true;
};

struct SweepRun {
  size_t threads = 0;
  double type_ms = 0;
};

struct SweepPoint {
  size_t n = 0;
  size_t tuples = 0;
  size_t ntp = 0;
  double setup_ms = 0;  // Gaifman + incidence CSR build (serial, 1T point)
  size_t structure_bytes = 0;
  size_t incidence_bytes = 0;
  uint64_t peak_rss_kb = 0;
  CanonCache::Stats cache;  // after the 1-thread run
  std::vector<SweepRun> runs;
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

bool SamePlan(const LocalScheme& a, const LocalScheme& b) {
  if (a.CapacityBits() != b.CapacityBits() || a.DistortionBound() != b.DistortionBound() ||
      a.NumTypes() != b.NumTypes() || a.CanonicalParams() != b.CanonicalParams()) {
    return false;
  }
  const auto& pa = a.marking().pairs();
  const auto& pb = b.marking().pairs();
  for (size_t i = 0; i < pa.size(); ++i) {
    if (pa[i].plus != pb[i].plus || pa[i].minus != pb[i].minus) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  size_t n = 12000;
  size_t k = 3;
  uint32_t rho = 2;
  int reps = 3;
  std::optional<std::string> json_path;
  std::vector<size_t> sweep_sizes;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json") {
      json_path = "BENCH_plan.json";
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
    } else if (arg == "--rho" && i + 1 < argc) {
      rho = static_cast<uint32_t>(std::stoul(argv[++i]));
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::stoi(argv[++i]);
    } else {
      std::cerr << "usage: bench_plan_scale [--json[=PATH]] [--n N] [--k K] "
                   "[--rho R] [--reps R] [--sweep[=N1,N2,...]]\n";
      return 2;
    }
  }

  std::cout << "=== bench_plan_scale: parallel, memoized planning (n=" << n
            << ", k=" << k << ", rho=" << rho << ") ===\n";

  Rng rng(42);
  Structure g = RandomBoundedDegreeGraph(n, k, 3 * n, false, rng);
  auto query = AtomQuery::Adjacency("E");

  LocalSchemeOptions opts;
  opts.rho = rho;
  opts.epsilon = 0.5;
  opts.key = {42, 99};

  // The 1-thread plan is the reference every other thread count must
  // reproduce and the bar its speedup is measured against.
  std::vector<RunResult> runs;
  std::optional<QueryIndex> index;  // the 1-thread run's index, kept for `reference`
  std::optional<LocalScheme> reference;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SetParallelThreads(threads);
    RunResult run;
    run.threads = threads;
    std::optional<QueryIndex> t_index;
    std::optional<QueryIndex>& run_index = reference ? t_index : index;
    run.index_ms = TimeMs([&] { run_index.emplace(g, *query, AllParams(g, 1)); });
    std::optional<LocalScheme> scheme;
    for (int r = 0; r < reps; ++r) {
      CanonCache::Global().Clear();  // cold cache: hits below are intra-plan
      const double ms = TimeMs(
          [&] { scheme.emplace(LocalScheme::Plan(*run_index, opts).ValueOrDie()); });
      run.plan_ms = r == 0 ? ms : std::min(run.plan_ms, ms);
    }
    run.cache = CanonCache::Global().stats();
    if (!reference) {
      reference = std::move(scheme);
    } else {
      run.identical = SamePlan(*reference, *scheme);
    }
    runs.push_back(run);
  }
  SetParallelThreads(0);  // restore the env/hardware default

  TextTable table(StrCat("Plan time from a cold canon cache, bounded-degree "
                         "instance (|domain|=", index->num_params(),
                         ", |W|=", index->num_active(),
                         ", ntp=", reference->NumTypes(), ")"));
  table.SetHeader({"threads", "index ms", "plan ms", "vs 1T", "hit rate",
                   "identical"});
  const double cached_serial_ms = runs.front().plan_ms;
  for (const RunResult& run : runs) {
    table.AddRow({StrCat(run.threads), FmtDouble(run.index_ms, 2),
                  FmtDouble(run.plan_ms, 2),
                  FmtDouble(cached_serial_ms / run.plan_ms, 2),
                  FmtDouble(run.cache.HitRate(), 3), run.identical ? "yes" : "NO"});
  }
  table.Print(std::cout);
  std::cout << "hardware threads visible: " << std::thread::hardware_concurrency()
            << "; 'vs 1T' isolates the thread pool.\n";
  const CanonCache::Stats& cs = runs.front().cache;
  std::cout << "canon cache: " << cs.entries << " fingerprint entries over "
            << cs.distinct_forms << " distinct forms, "
            << FmtDouble(static_cast<double>(cs.bytes_resident) / 1024.0, 1)
            << " KiB resident; shard occupancy max " << cs.shard_max
            << " / mean " << FmtDouble(cs.shard_mean, 1) << "\n";

  bool all_identical = true;
  for (const RunResult& run : runs) all_identical &= run.identical;
  if (!all_identical) {
    std::cerr << "FAIL: plans differ across thread counts\n";
    return 1;
  }

  // Cache-alone section: serial typing on a high-repetition instance. Grid
  // interiors share one neighborhood type per boundary distance, so nearly
  // every tuple is a cache hit while rho = 4 neighborhoods (41 elements) make
  // each avoided canonicalization expensive — the regime the memoization
  // targets. Thread count is pinned to 1 so the entire win is the cache.
  SetParallelThreads(1);
  const size_t grid_w = 120, grid_h = 100;
  const uint32_t grid_rho = 4;
  Structure grid = GridGraph(grid_w, grid_h);
  std::vector<Tuple> grid_domain;
  grid_domain.reserve(grid.universe_size());
  for (ElemId e = 0; e < grid.universe_size(); ++e) grid_domain.push_back({e});
  double grid_uncached_ms = 0, grid_cached_ms = 0;
  size_t grid_ntp = 0;
  bool grid_identical = true;
  for (int r = 0; r < std::min(reps, 2); ++r) {
    std::vector<uint32_t> t_uncached, t_cached;
    const double u = TimeMs([&] {
      NeighborhoodTyper typer(grid, grid_rho, nullptr);
      t_uncached = typer.TypeAll(grid_domain);
      grid_ntp = typer.NumTypes();
    });
    CanonCache::Global().Clear();
    const double c = TimeMs([&] {
      NeighborhoodTyper typer(grid, grid_rho);
      t_cached = typer.TypeAll(grid_domain);
    });
    grid_uncached_ms = r == 0 ? u : std::min(grid_uncached_ms, u);
    grid_cached_ms = r == 0 ? c : std::min(grid_cached_ms, c);
    grid_identical &= t_uncached == t_cached;
  }
  const CanonCache::Stats grid_stats = CanonCache::Global().stats();
  SetParallelThreads(0);
  std::cout << "cache-alone (serial) typing, " << grid_w << "x" << grid_h
            << " grid, rho=" << grid_rho << ": uncached "
            << FmtDouble(grid_uncached_ms, 2) << " ms, cached "
            << FmtDouble(grid_cached_ms, 2) << " ms, speedup "
            << FmtDouble(grid_uncached_ms / grid_cached_ms, 2) << "x, hit rate "
            << FmtDouble(grid_stats.HitRate(), 4) << ", ntp " << grid_ntp
            << ", types " << (grid_identical ? "identical" : "DIFFER") << "\n";
  if (!grid_identical) {
    std::cerr << "FAIL: cached typing differs from uncached typing\n";
    return 1;
  }

  // --- Scaling sweep ------------------------------------------------------
  // The planning cost at large n is typing: TypeAll over the full unary
  // domain (neighborhood extraction + canonicalization, the loop the CSR
  // layout and scratch arenas exist for). Each point builds a fresh
  // bounded-degree instance, then types it at 1/2/8 threads with a cold
  // cache and a fresh typer per thread count; type vectors must match the
  // 1-thread run bit for bit. The timed region excludes the serial CSR
  // builds (reported once as setup_ms) so the thread column measures the
  // parallel section, and excludes instance generation.
  std::vector<SweepPoint> sweep;
  for (size_t sn : sweep_sizes) {
    SweepPoint pt;
    pt.n = sn;
    Rng srng(42);
    Structure sg = RandomBoundedDegreeGraph(sn, k, 3 * sn, false, srng);
    for (size_t r = 0; r < sg.num_relations(); ++r) pt.tuples += sg.relation(r).size();
    const std::vector<Tuple> domain = AllParams(sg, 1);
    std::vector<uint32_t> reference;
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      SetParallelThreads(threads);
      CanonCache::Global().Clear();
      std::optional<NeighborhoodTyper> typer;
      const double setup = TimeMs([&] { typer.emplace(sg, rho); });
      std::vector<uint32_t> types;
      const double ms = TimeMs([&] { types = typer->TypeAll(domain); });
      if (threads == 1) {
        reference = std::move(types);
        pt.ntp = typer->NumTypes();
        pt.setup_ms = setup;
        pt.structure_bytes = sg.BytesResident();
        pt.incidence_bytes = typer->incidence().BytesResident();
        pt.cache = CanonCache::Global().stats();
      } else {
        pt.identical &= types == reference;
      }
      pt.runs.push_back({threads, ms});
    }
    SetParallelThreads(0);
    pt.peak_rss_kb = PeakRssKb();
    sweep.push_back(std::move(pt));
  }
  if (!sweep.empty()) {
    TextTable st("TypeAll scaling sweep (cold cache per run; B/tuple is the "
                 "flat tuple+index storage of the instance itself)");
    st.SetHeader({"n", "tuples", "ntp", "setup ms", "1T ms", "2T ms", "8T ms",
                  "8T speedup", "B/tuple", "peak RSS MB", "identical"});
    for (const SweepPoint& pt : sweep) {
      const double one_t = pt.runs[0].type_ms;
      st.AddRow({StrCat(pt.n), StrCat(pt.tuples), StrCat(pt.ntp),
                 FmtDouble(pt.setup_ms, 1), FmtDouble(pt.runs[0].type_ms, 1),
                 FmtDouble(pt.runs[1].type_ms, 1), FmtDouble(pt.runs[2].type_ms, 1),
                 FmtDouble(one_t / pt.runs[2].type_ms, 2),
                 FmtDouble(static_cast<double>(pt.structure_bytes) /
                               static_cast<double>(pt.tuples), 1),
                 FmtDouble(static_cast<double>(pt.peak_rss_kb) / 1024.0, 1),
                 pt.identical ? "yes" : "NO"});
    }
    st.Print(std::cout);
    bool sweep_identical = true;
    for (const SweepPoint& pt : sweep) sweep_identical &= pt.identical;
    if (!sweep_identical) {
      std::cerr << "FAIL: sweep typing differs across thread counts\n";
      return 1;
    }
  }

  if (json_path) {
    JsonWriter w;
    w.BeginObject();
    w.Key("instance").BeginObject();
    w.Key("n").UInt(n);
    w.Key("k").UInt(k);
    w.Key("rho").UInt(rho);
    w.Key("num_params").UInt(index->num_params());
    w.Key("num_active").UInt(index->num_active());
    w.Key("ntp").UInt(reference->NumTypes());
    w.Key("candidate_pairs").UInt(reference->CandidatePairs());
    w.Key("bits").UInt(reference->CapacityBits());
    w.Key("distortion_bound").UInt(reference->DistortionBound());
    w.EndObject();
    w.Key("hardware_threads").UInt(std::thread::hardware_concurrency());
    w.Key("reps").Int(reps);
    w.Key("runs").BeginArray();
    for (const RunResult& run : runs) {
      w.BeginObject();
      w.Key("threads").UInt(run.threads);
      w.Key("index_build_ms").Double(run.index_ms);
      w.Key("plan_ms").Double(run.plan_ms);
      w.Key("speedup_vs_cached_serial").Double(cached_serial_ms / run.plan_ms);
      w.Key("cache_hits").UInt(run.cache.hits);
      w.Key("cache_misses").UInt(run.cache.misses);
      w.Key("cache_hit_rate").Double(run.cache.HitRate());
      w.Key("cache_entries").UInt(run.cache.entries);
      w.Key("cache_distinct_forms").UInt(run.cache.distinct_forms);
      w.Key("cache_bytes_resident").UInt(run.cache.bytes_resident);
      w.Key("cache_shard_max").UInt(run.cache.shard_max);
      w.Key("cache_shard_mean").Double(run.cache.shard_mean);
      w.Key("identical_to_1t").Bool(run.identical);
      w.EndObject();
    }
    w.EndArray();
    w.Key("grid_typing").BeginObject();
    w.Key("description").String("serial TypeAll on a grid (high-repetition types): cache-alone speedup");
    w.Key("width").UInt(grid_w);
    w.Key("height").UInt(grid_h);
    w.Key("rho").UInt(grid_rho);
    w.Key("ntp").UInt(grid_ntp);
    w.Key("uncached_ms").Double(grid_uncached_ms);
    w.Key("cached_ms").Double(grid_cached_ms);
    w.Key("speedup").Double(grid_uncached_ms / grid_cached_ms);
    w.Key("cache_hit_rate").Double(grid_stats.HitRate());
    w.Key("cache_entries").UInt(grid_stats.entries);
    w.Key("cache_distinct_forms").UInt(grid_stats.distinct_forms);
    w.Key("cache_bytes_resident").UInt(grid_stats.bytes_resident);
    w.Key("cache_shard_max").UInt(grid_stats.shard_max);
    w.Key("cache_shard_mean").Double(grid_stats.shard_mean);
    w.EndObject();
    if (!sweep.empty()) {
      w.Key("sweep").BeginArray();
      for (const SweepPoint& pt : sweep) {
        w.BeginObject();
        w.Key("n").UInt(pt.n);
        w.Key("k").UInt(k);
        w.Key("rho").UInt(rho);
        w.Key("tuples").UInt(pt.tuples);
        w.Key("ntp").UInt(pt.ntp);
        w.Key("setup_ms").Double(pt.setup_ms);
        w.Key("runs").BeginArray();
        for (const SweepRun& run : pt.runs) {
          w.BeginObject();
          w.Key("threads").UInt(run.threads);
          w.Key("type_ms").Double(run.type_ms);
          w.Key("speedup_vs_1t").Double(pt.runs[0].type_ms / run.type_ms);
          w.EndObject();
        }
        w.EndArray();
        w.Key("identical_across_threads").Bool(pt.identical);
        w.Key("structure_bytes").UInt(pt.structure_bytes);
        w.Key("incidence_bytes").UInt(pt.incidence_bytes);
        w.Key("bytes_per_tuple")
            .Double(pt.tuples == 0 ? 0.0
                                   : static_cast<double>(pt.structure_bytes) /
                                         static_cast<double>(pt.tuples));
        w.Key("cache_entries").UInt(pt.cache.entries);
        w.Key("cache_bytes_resident").UInt(pt.cache.bytes_resident);
        w.Key("cache_hit_rate").Double(pt.cache.HitRate());
        w.Key("peak_rss_kb").UInt(pt.peak_rss_kb);
        w.EndObject();
      }
      w.EndArray();
    }
    w.EndObject();
    if (!UpdateBenchJsonSection(*json_path, "plan_scale", w.str())) {
      std::cerr << "FAIL: cannot write " << *json_path << "\n";
      return 1;
    }
    std::cout << "wrote section \"plan_scale\" to " << *json_path << "\n";
  }
  return 0;
}
