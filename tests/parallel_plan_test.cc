// Determinism contract of the parallel, memoized planning layer: plans are
// bit-identical regardless of the configured thread count and of whether the
// canonical-form cache is enabled. Also covers the ParallelFor/ParallelMap
// primitives and the CanonCache == CanonicalForm equivalence the cache's
// soundness rests on, probed through Lookup/Insert as NeighborhoodTyper does.
#include <gtest/gtest.h>

#include <algorithm>

#include <atomic>
#include <map>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "qpwm/core/local_scheme.h"
#include "qpwm/core/tree_scheme.h"
#include "qpwm/logic/parser.h"
#include "qpwm/logic/query.h"
#include "qpwm/structure/canon_cache.h"
#include "qpwm/structure/generators.h"
#include "qpwm/structure/isomorphism.h"
#include "qpwm/structure/neighborhood.h"
#include "qpwm/tree/mso.h"
#include "qpwm/tree/query.h"
#include "qpwm/util/parallel.h"
#include "qpwm/util/random.h"

namespace qpwm {
namespace {

// Restores the configured thread count even when a test fails mid-way.
class ThreadGuard {
 public:
  ThreadGuard() = default;
  ~ThreadGuard() { SetParallelThreads(0); }
};

struct PlanSnapshot {
  std::vector<WeightPair> pairs;
  uint32_t bound = 0;
  size_t ntp = 0;
  size_t bits = 0;
  std::vector<size_t> canonical_params;

  static PlanSnapshot Of(const LocalScheme& s) {
    PlanSnapshot out;
    out.pairs = s.marking().pairs();
    out.bound = s.DistortionBound();
    out.ntp = s.NumTypes();
    out.bits = s.CapacityBits();
    out.canonical_params = s.CanonicalParams();
    return out;
  }

  bool operator==(const PlanSnapshot& o) const {
    if (bound != o.bound || ntp != o.ntp || bits != o.bits ||
        canonical_params != o.canonical_params || pairs.size() != o.pairs.size()) {
      return false;
    }
    for (size_t i = 0; i < pairs.size(); ++i) {
      if (pairs[i].plus != o.pairs[i].plus || pairs[i].minus != o.pairs[i].minus) {
        return false;
      }
    }
    return true;
  }
};

TEST(ParallelPrimitives, ParallelForCoversEveryIndex) {
  ThreadGuard guard;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SetParallelThreads(threads);
    std::vector<int> hits(10007, 0);
    ParallelFor(hits.size(), [&](size_t i) { ++hits[i]; });
    for (size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i], 1) << "index " << i << " at " << threads << " threads";
    }
  }
}

TEST(ParallelPrimitives, ParallelMapPreservesOrder) {
  ThreadGuard guard;
  SetParallelThreads(8);
  std::vector<uint64_t> out =
      ParallelMap<uint64_t>(5000, [](size_t i) { return i * i; });
  for (size_t i = 0; i < out.size(); ++i) ASSERT_EQ(out[i], i * i);
}

TEST(ParallelPrimitives, ParallelBlocksPartitionsExactly) {
  ThreadGuard guard;
  SetParallelThreads(8);
  std::vector<uint64_t> sums = ParallelBlocks<uint64_t>(12345, [](size_t begin, size_t end) {
    uint64_t s = 0;
    for (size_t i = begin; i < end; ++i) s += i;
    return s;
  });
  const uint64_t total = std::accumulate(sums.begin(), sums.end(), uint64_t{0});
  EXPECT_EQ(total, uint64_t{12345} * 12344 / 2);
}

TEST(ParallelPrimitives, ExceptionsPropagate) {
  ThreadGuard guard;
  SetParallelThreads(8);
  EXPECT_THROW(ParallelFor(1000,
                           [](size_t i) {
                             // qpwm-lint: allow(bare-throw) -- exception-propagation test
                             if (i == 637) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
  // The pool survives a propagated exception.
  std::atomic<size_t> count{0};
  ParallelFor(100, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100u);
}

TEST(ParallelPrimitives, NestedParallelismRunsInline) {
  ThreadGuard guard;
  SetParallelThreads(4);
  std::vector<uint64_t> out = ParallelMap<uint64_t>(64, [](size_t i) {
    std::vector<uint64_t> inner =
        ParallelMap<uint64_t>(32, [i](size_t j) { return i * 100 + j; });
    return std::accumulate(inner.begin(), inner.end(), uint64_t{0});
  });
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], i * 100 * 32 + 31 * 32 / 2);
  }
}

// Gathers N_rho(c) into `scratch` and fingerprints its records, the way
// NeighborhoodTyper probes the cache; scratch.rel_flat stays unconsumed.
CanonFingerprint GatherAndFingerprint(const TupleIncidence& inc, const Tuple& c,
                                      uint32_t rho, NeighborhoodScratch& scratch,
                                      CanonKeyScratch& key) {
  GatherNeighborhood(inc, c, rho, scratch);
  return NeighborhoodFingerprint128(scratch.nb.global_ids.size(), inc.arities(),
                                    scratch.rel_flat, scratch.nb.distinguished,
                                    key);
}

TEST(CanonCacheTest, MatchesUncachedCanonicalForm) {
  Rng rng(77);
  Structure g = RandomBoundedDegreeGraph(400, 3, 1200, false, rng);
  TupleIncidence inc(g);
  CanonCache cache;
  NeighborhoodScratch scratch;
  CanonKeyScratch key;
  for (uint32_t rho : {1u, 2u}) {
    for (ElemId e = 0; e < g.universe_size(); ++e) {
      const CanonFingerprint fp = GatherAndFingerprint(inc, {e}, rho, scratch, key);
      const Neighborhood& nb = MaterializeNeighborhood(inc, scratch);
      std::optional<uint32_t> id = cache.Lookup(fp);
      if (!id) id = cache.Insert(fp, nb.local, nb.distinguished);
      ASSERT_EQ(cache.CanonicalOfId(*id), CanonicalForm(nb.local, nb.distinguished))
          << "element " << e << " rho " << rho;
    }
  }
  EXPECT_GT(cache.stats().hits, 0u);
  EXPECT_GT(cache.stats().misses, 0u);
}

TEST(CanonCacheTest, KeyAgreesOnIsomorphicNeighborhoods) {
  // The one assumption the cache makes: equal 128-bit fingerprints imply
  // equal canonical forms, so a hit never returns another type's id. A
  // collision across non-isomorphic neighborhoods would corrupt plans.
  // Spot-check every neighborhood of a small instance, and check that
  // fingerprints do repeat there (same-type neighborhoods share one).
  Rng rng(78);
  Structure g = RandomBoundedDegreeGraph(300, 3, 900, false, rng);
  TupleIncidence inc(g);
  NeighborhoodScratch scratch;
  CanonKeyScratch key;
  std::map<std::pair<uint64_t, uint64_t>, std::string> canon_by_fp;
  for (ElemId e = 0; e < g.universe_size(); ++e) {
    const CanonFingerprint fp = GatherAndFingerprint(inc, {e}, 2, scratch, key);
    const Neighborhood& nb = MaterializeNeighborhood(inc, scratch);
    std::string canon = CanonicalForm(nb.local, nb.distinguished);
    auto [it, inserted] = canon_by_fp.emplace(std::pair{fp.lo, fp.hi}, canon);
    if (!inserted) {
      ASSERT_EQ(it->second, canon) << "fingerprint collision across types";
    }
  }
  EXPECT_LT(canon_by_fp.size(), g.universe_size());
}

TEST(ParallelPlanTest, LocalSchemeIdenticalAcrossThreadsAndCache) {
  ThreadGuard guard;
  Rng rng(42);
  Structure g = RandomBoundedDegreeGraph(1200, 3, 3600, false, rng);
  auto query = AtomQuery::Adjacency("E");
  QueryIndex index(g, *query, AllParams(g, 1));

  LocalSchemeOptions opts;
  opts.rho = 2;
  opts.epsilon = 0.5;
  opts.key = {42, 99};

  // Reference: one thread, planned from a cold canonical-form cache.
  SetParallelThreads(1);
  CanonCache::Global().Clear();
  const PlanSnapshot reference =
      PlanSnapshot::Of(LocalScheme::Plan(index, opts).ValueOrDie());
  ASSERT_GT(reference.bits, 0u);

  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SetParallelThreads(threads);
    CanonCache::Global().Clear();
    const PlanSnapshot cold =
        PlanSnapshot::Of(LocalScheme::Plan(index, opts).ValueOrDie());
    EXPECT_TRUE(reference == cold) << "cold-cache plan differs at " << threads
                                   << " threads";
    const PlanSnapshot warm =
        PlanSnapshot::Of(LocalScheme::Plan(index, opts).ValueOrDie());
    EXPECT_TRUE(reference == warm) << "warm-cache plan differs at " << threads
                                   << " threads";
  }
}

TEST(ParallelPlanTest, QueryIndexIdenticalAcrossThreads) {
  ThreadGuard guard;
  Rng rng(43);
  Structure g = RandomBoundedDegreeGraph(800, 3, 2400, false, rng);
  auto query = AtomQuery::Adjacency("E");

  SetParallelThreads(1);
  QueryIndex reference(g, *query, AllParams(g, 1));
  for (size_t threads : {size_t{2}, size_t{8}}) {
    SetParallelThreads(threads);
    QueryIndex parallel_index(g, *query, AllParams(g, 1));
    ASSERT_EQ(parallel_index.num_active(), reference.num_active());
    for (size_t w = 0; w < reference.num_active(); ++w) {
      ASSERT_EQ(parallel_index.active_element(w), reference.active_element(w));
    }
    for (size_t a = 0; a < reference.num_params(); ++a) {
      ASSERT_TRUE(std::ranges::equal(parallel_index.ResultFor(a), reference.ResultFor(a)));
    }
  }
}

TEST(ParallelPlanTest, PairCostIdenticalAcrossThreads) {
  ThreadGuard guard;
  Rng rng(44);
  // Big enough to clear the parallel dispatch threshold in CostPerParam.
  Structure g = RandomBoundedDegreeGraph(24000, 3, 72000, false, rng);
  auto query = AtomQuery::Adjacency("E");
  QueryIndex index(g, *query, AllParams(g, 1));
  std::vector<WeightPair> pairs;
  for (uint32_t i = 0; i + 1 < index.num_active(); i += 2) pairs.push_back({i, i + 1});
  ASSERT_GE(pairs.size(), 8192u);
  PairMarking marking(index, pairs);

  SetParallelThreads(1);
  const std::vector<uint32_t> reference = marking.CostPerParam();
  for (size_t threads : {size_t{2}, size_t{8}}) {
    SetParallelThreads(threads);
    EXPECT_EQ(marking.CostPerParam(), reference) << threads << " threads";
  }
}

TEST(ParallelPlanTest, TreeSchemeIdenticalAcrossThreads) {
  ThreadGuard guard;
  Alphabet sigma;
  sigma.Intern("a");
  sigma.Intern("b");
  sigma.Intern("c");
  Dta query = CompileMso(*MustParseFormula("LEQ(u, v) & P_b(v)"), sigma, {"u", "v"})
                  .ValueOrDie()
                  .dta;
  Rng rng(45);
  BinaryTree t = RandomBinaryTree(600, 3, rng);
  TreeSchemeOptions opts;
  opts.key = {0xAB, 0xCD};

  WeightMap w(1, t.size());
  for (NodeId v = 0; v < t.size(); ++v) w.SetElem(v, 100 + v % 800);

  SetParallelThreads(1);
  auto reference = TreeScheme::Plan(t, t.labels(), 3, query, 1, opts).ValueOrDie();
  ASSERT_GT(reference.CapacityBits(), 0u);
  BitVec mark(reference.CapacityBits());
  for (size_t i = 0; i < mark.size(); ++i) mark.Set(i, i % 2 == 0);
  const WeightMap reference_marked = reference.Embed(w, mark);

  for (size_t threads : {size_t{2}, size_t{8}}) {
    SetParallelThreads(threads);
    auto scheme = TreeScheme::Plan(t, t.labels(), 3, query, 1, opts).ValueOrDie();
    ASSERT_EQ(scheme.CapacityBits(), reference.CapacityBits()) << threads;
    EXPECT_EQ(scheme.RegionsPaired(), reference.RegionsPaired()) << threads;
    EXPECT_EQ(scheme.DistortionBound(), reference.DistortionBound()) << threads;
    // Pair lists are private; identical embeddings pin them down exactly.
    const WeightMap marked = scheme.Embed(w, mark);
    for (NodeId v = 0; v < t.size(); ++v) {
      ASSERT_EQ(marked.GetElem(v), reference_marked.GetElem(v))
          << "node " << v << " at " << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace qpwm
