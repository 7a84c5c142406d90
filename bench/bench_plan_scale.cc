// bench_plan_scale — the determinism gates of the parallel, memoized
// planning layer (thread pool + canonical-form cache). Plan time itself is
// measured, with bounds, by the `plan-embed` workload in benchmark/.
//
// Instance: the E6-style bounded-degree graph (RandomBoundedDegreeGraph,
// degree 3, adjacency query over all unary parameters) with rho = 2, the
// regime the paper's Theorem 3 targets: neighborhoods are tiny and highly
// repetitive (ntp << |domain|).
//
// Exits 1 if any check fails:
//   * plans are identical at 1, 2 and 8 threads (n = 12000, each plan from
//     a cleared canonical-form cache);
//   * cached typing equals uncached typing (120x100 grid, rho = 4, where
//     nearly every neighborhood is a cache hit);
//   * with --sweep, TypeAll over the full unary domain is identical across
//     thread counts at 5*10^4, 2*10^5 and 10^6 elements.
#include <cstdint>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "qpwm/core/local_scheme.h"
#include "qpwm/logic/query.h"
#include "qpwm/structure/canon_cache.h"
#include "qpwm/structure/generators.h"
#include "qpwm/structure/typemap.h"
#include "qpwm/util/parallel.h"
#include "qpwm/util/random.h"

using namespace qpwm;

namespace {

constexpr size_t kDegree = 3;
constexpr uint32_t kRho = 2;

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

/// Plans at 1, 2 and 8 threads, each from a cleared cache; every plan must
/// reproduce the 1-thread one.
bool PlansIdenticalAcrossThreads() {
  const size_t n = 12000;
  Rng rng(42);
  Structure g = RandomBoundedDegreeGraph(n, kDegree, 3 * n, false, rng);
  auto query = AtomQuery::Adjacency("E");
  LocalSchemeOptions opts;
  opts.rho = kRho;
  opts.epsilon = 0.5;
  opts.key = {42, 99};

  // A scheme reads through its index, so every index outlives the loop.
  std::vector<std::unique_ptr<QueryIndex>> indexes;
  std::optional<LocalScheme> reference;
  bool identical = true;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SetParallelThreads(threads);
    indexes.push_back(std::make_unique<QueryIndex>(g, *query, AllParams(g, 1)));
    CanonCache::Global().Clear();
    LocalScheme scheme = LocalScheme::Plan(*indexes.back(), opts).ValueOrDie();
    const bool same = !reference || SamePlan(*reference, scheme);
    std::cout << "plan n=" << n << " @" << threads << "T: " << scheme.CapacityBits()
              << " pairs, ntp " << scheme.NumTypes() << ", "
              << (same ? "identical" : "DIFFERS") << "\n";
    identical &= same;
    if (!reference) reference.emplace(std::move(scheme));
  }
  SetParallelThreads(0);  // restore the env/hardware default
  return identical;
}

/// Serial typing of a grid with and without the canonical-form cache.
bool CachedTypingMatchesUncached() {
  SetParallelThreads(1);
  Structure grid = GridGraph(120, 100);
  const uint32_t rho = 4;
  const std::vector<Tuple> domain = AllParams(grid, 1);
  NeighborhoodTyper uncached(grid, rho, nullptr);
  const std::vector<uint32_t> expected = uncached.TypeAll(domain);
  CanonCache::Global().Clear();
  NeighborhoodTyper cached(grid, rho);
  const bool identical = cached.TypeAll(domain) == expected;
  SetParallelThreads(0);
  std::cout << "grid 120x100 rho=" << rho << ": ntp " << uncached.NumTypes()
            << ", cached typing " << (identical ? "identical" : "DIFFERS")
            << " to uncached\n";
  return identical;
}

/// TypeAll over the full unary domain of a bounded-degree instance of size
/// n at 1, 2 and 8 threads, each from a cleared cache with a fresh typer.
bool SweepTypingIdenticalAcrossThreads(size_t n) {
  Rng rng(42);
  Structure g = RandomBoundedDegreeGraph(n, kDegree, 3 * n, false, rng);
  const std::vector<Tuple> domain = AllParams(g, 1);
  std::vector<uint32_t> reference;
  bool identical = true;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SetParallelThreads(threads);
    CanonCache::Global().Clear();
    NeighborhoodTyper typer(g, kRho);
    std::vector<uint32_t> types = typer.TypeAll(domain);
    if (threads == 1) {
      reference = std::move(types);
    } else {
      identical &= types == reference;
    }
  }
  SetParallelThreads(0);
  std::cout << "sweep n=" << n << ": TypeAll at 1/2/8T "
            << (identical ? "identical" : "DIFFERS") << "\n";
  return identical;
}

}  // namespace

int main(int argc, char** argv) {
  bool sweep = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--sweep") {
      sweep = true;
    } else {
      std::cerr << "usage: bench_plan_scale [--sweep]\n";
      return 2;
    }
  }

  if (!PlansIdenticalAcrossThreads()) {
    std::cerr << "FAIL: plans differ across thread counts\n";
    return 1;
  }
  if (!CachedTypingMatchesUncached()) {
    std::cerr << "FAIL: cached typing differs from uncached typing\n";
    return 1;
  }
  if (sweep) {
    for (size_t n : {size_t{50000}, size_t{200000}, size_t{1000000}}) {
      if (!SweepTypingIdenticalAcrossThreads(n)) {
        std::cerr << "FAIL: sweep typing differs across thread counts\n";
        return 1;
      }
    }
  }
  return 0;
}
