// E13 — micro-benchmarks (google-benchmark): throughput of the primitives
// the schemes are built from — canonical forms, query indexing, automaton
// runs, the Lemma 3 decomposition and pair-cost accounting.
#include <benchmark/benchmark.h>

#include <optional>

#include "qpwm/core/local_scheme.h"
#include "qpwm/core/pairs.h"
#include "qpwm/logic/parser.h"
#include "qpwm/structure/canon_cache.h"
#include "qpwm/structure/generators.h"
#include "qpwm/structure/isomorphism.h"
#include "qpwm/structure/neighborhood.h"
#include "qpwm/structure/typemap.h"
#include "qpwm/tree/decomposition.h"
#include "qpwm/tree/mso.h"
#include "qpwm/tree/query.h"
#include "qpwm/util/parallel.h"
#include "qpwm/util/random.h"

namespace qpwm {
namespace {

void BM_CanonicalForm(benchmark::State& state) {
  Rng rng(1);
  Structure g = RandomBoundedDegreeGraph(static_cast<size_t>(state.range(0)), 3,
                                         3 * state.range(0), false, rng);
  TupleIncidence inc(g);
  ElemId e = 0;
  for (auto _ : state) {
    Neighborhood nb = ExtractNeighborhood(inc, Tuple{e}, 2);
    benchmark::DoNotOptimize(CanonicalForm(nb.local, nb.distinguished));
    e = (e + 1) % g.universe_size();
  }
}
BENCHMARK(BM_CanonicalForm)->Arg(100)->Arg(1000);

// One cache probe as NeighborhoodTyper makes it: gather N_2(e), fingerprint
// the records, and on a miss materialize and canonicalize.
uint32_t ProbeCache(CanonCache& cache, const TupleIncidence& inc, ElemId e,
                    NeighborhoodScratch& nb, CanonKeyScratch& key) {
  GatherNeighborhood(inc, Tuple{e}, 2, nb);
  const CanonFingerprint fp = NeighborhoodFingerprint128(
      nb.nb.global_ids.size(), inc.arities(), nb.rel_flat, nb.nb.distinguished, key);
  if (std::optional<uint32_t> id = cache.Lookup(fp)) return *id;
  const Neighborhood& full = MaterializeNeighborhood(inc, nb);
  return cache.Insert(fp, full.local, full.distinguished);
}

// Hit path: every neighborhood was already canonicalized, so each call is
// gather + fingerprint + one sharded map lookup.
void BM_CanonicalFormCacheHit(benchmark::State& state) {
  Rng rng(1);
  Structure g = RandomBoundedDegreeGraph(static_cast<size_t>(state.range(0)), 3,
                                         3 * state.range(0), false, rng);
  TupleIncidence inc(g);
  CanonCache cache;
  NeighborhoodScratch nb;
  CanonKeyScratch key;
  for (ElemId e = 0; e < g.universe_size(); ++e) ProbeCache(cache, inc, e, nb, key);
  ElemId e = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ProbeCache(cache, inc, e, nb, key));
    e = (e + 1) % g.universe_size();
  }
}
BENCHMARK(BM_CanonicalFormCacheHit)->Arg(100)->Arg(1000);

// Miss path: cache cleared each iteration, so this is gather + fingerprint +
// materialize + full canonicalization + insert (the worst case; contrast
// with BM_CanonicalForm).
void BM_CanonicalFormCacheMiss(benchmark::State& state) {
  Rng rng(1);
  Structure g = RandomBoundedDegreeGraph(static_cast<size_t>(state.range(0)), 3,
                                         3 * state.range(0), false, rng);
  TupleIncidence inc(g);
  CanonCache cache;
  NeighborhoodScratch nb;
  CanonKeyScratch key;
  ElemId e = 0;
  for (auto _ : state) {
    cache.Clear();
    benchmark::DoNotOptimize(ProbeCache(cache, inc, e, nb, key));
    e = (e + 1) % g.universe_size();
  }
}
BENCHMARK(BM_CanonicalFormCacheMiss)->Arg(100)->Arg(1000);

// Uncached baseline: every tuple canonicalizes from scratch (cache = nullptr,
// the pre-optimization typing loop).
void BM_NeighborhoodTyping(benchmark::State& state) {
  Rng rng(2);
  Structure g = RandomBoundedDegreeGraph(static_cast<size_t>(state.range(0)), 3,
                                         3 * state.range(0), false, rng);
  for (auto _ : state) {
    NeighborhoodTyper typer(g, 1, nullptr);
    for (ElemId e = 0; e < g.universe_size(); ++e) {
      benchmark::DoNotOptimize(typer.TypeOf(Tuple{e}));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NeighborhoodTyping)->Arg(500)->Arg(2000);

// Same loop through a (benchmark-local) canonical-form cache; after the first
// pass every repeated neighborhood type is a hit.
void BM_NeighborhoodTypingCached(benchmark::State& state) {
  Rng rng(2);
  Structure g = RandomBoundedDegreeGraph(static_cast<size_t>(state.range(0)), 3,
                                         3 * state.range(0), false, rng);
  CanonCache cache;
  for (auto _ : state) {
    NeighborhoodTyper typer(g, 1, &cache);
    for (ElemId e = 0; e < g.universe_size(); ++e) {
      benchmark::DoNotOptimize(typer.TypeOf(Tuple{e}));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NeighborhoodTypingCached)->Arg(500)->Arg(2000);

// Dispatch cost of an (empty-body) ParallelFor at various thread counts —
// what a hot path pays for choosing parallel dispatch over a plain loop.
void BM_ParallelForOverhead(benchmark::State& state) {
  SetParallelThreads(static_cast<size_t>(state.range(0)));
  std::vector<uint64_t> out(4096);
  for (auto _ : state) {
    ParallelFor(out.size(), [&](size_t i) { out[i] = i; });
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 4096);
  SetParallelThreads(0);
}
BENCHMARK(BM_ParallelForOverhead)->Arg(1)->Arg(2)->Arg(8);

void BM_QueryIndexBuild(benchmark::State& state) {
  Rng rng(3);
  Structure g = RandomBoundedDegreeGraph(static_cast<size_t>(state.range(0)), 3,
                                         3 * state.range(0), false, rng);
  auto query = AtomQuery::Adjacency("E");
  for (auto _ : state) {
    QueryIndex index(g, *query, AllParams(g, 1));
    benchmark::DoNotOptimize(index.num_active());
  }
}
BENCHMARK(BM_QueryIndexBuild)->Arg(1000)->Arg(10000);

void BM_PairCost(benchmark::State& state) {
  Rng rng(4);
  Structure g = RandomBoundedDegreeGraph(static_cast<size_t>(state.range(0)), 3,
                                         3 * state.range(0), false, rng);
  auto query = AtomQuery::Adjacency("E");
  QueryIndex index(g, *query, AllParams(g, 1));
  std::vector<WeightPair> pairs;
  for (uint32_t i = 0; i + 1 < index.num_active(); i += 2) pairs.push_back({i, i + 1});
  PairMarking marking(index, pairs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(marking.MaxCost());
  }
}
BENCHMARK(BM_PairCost)->Arg(1000)->Arg(10000);

void BM_LocalSchemePlan(benchmark::State& state) {
  Rng rng(5);
  Structure g = RandomBoundedDegreeGraph(static_cast<size_t>(state.range(0)), 3,
                                         3 * state.range(0), false, rng);
  auto query = AtomQuery::Adjacency("E");
  QueryIndex index(g, *query, AllParams(g, 1));
  LocalSchemeOptions opts;
  opts.key = {5, 5};
  for (auto _ : state) {
    benchmark::DoNotOptimize(LocalScheme::Plan(index, opts).ValueOrDie());
  }
}
BENCHMARK(BM_LocalSchemePlan)->Arg(1000)->Arg(4000);

struct TreeFixtureData {
  Alphabet sigma;
  BinaryTree tree;
  std::optional<TreeQuery> query;
  std::optional<TreeLayout> layout;

  explicit TreeFixtureData(size_t n) {
    sigma.Intern("a");
    sigma.Intern("b");
    sigma.Intern("c");
    Rng rng(6);
    tree = RandomBinaryTree(n, 3, rng);
    const Dta dta = CompileMso(*MustParseFormula("LEQ(u, v) & P_b(v)"), sigma, {"u", "v"})
                        .ValueOrDie()
                        .dta;
    query.emplace(TreeQuery::Compile(dta, 3, 1).ValueOrDie());
    layout.emplace(TreeLayout::Build(tree, tree.labels(), 3).ValueOrDie());
  }
};

void BM_TreeLayoutBuild(benchmark::State& state) {
  TreeFixtureData fixture(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        TreeLayout::Build(fixture.tree, fixture.tree.labels(), 3).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TreeLayoutBuild)->Arg(1000)->Arg(100000);

void BM_AutomatonRun(benchmark::State& state) {
  TreeFixtureData fixture(static_cast<size_t>(state.range(0)));
  const TreeLayout& layout = *fixture.layout;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fixture.query->table().Run(layout, layout.absent(), 0)[layout.size() - 1]);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AutomatonRun)->Arg(1000)->Arg(100000);

void BM_EvaluateWa(benchmark::State& state) {
  TreeFixtureData fixture(static_cast<size_t>(state.range(0)));
  NodeId a = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(EvaluateWa(*fixture.layout, *fixture.query, a));
    a = (a + 1) % fixture.tree.size();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EvaluateWa)->Arg(1000)->Arg(30000)->Arg(100000);

void BM_FindMarkRegions(benchmark::State& state) {
  TreeFixtureData fixture(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    DecompositionStats stats;
    benchmark::DoNotOptimize(
        FindMarkRegions(*fixture.layout, *fixture.query, {}, &stats));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FindMarkRegions)->Arg(3000)->Arg(30000)->Arg(100000);

void BM_MsoCompile(benchmark::State& state) {
  Alphabet sigma;
  sigma.Intern("a");
  sigma.Intern("b");
  sigma.Intern("c");
  FormulaPtr f = MustParseFormula("exists w (CHILD(u, w) & P_b(w) & LEQ(w, v))");
  for (auto _ : state) {
    benchmark::DoNotOptimize(CompileMso(*f, sigma, {"u", "v"}).ValueOrDie());
  }
}
BENCHMARK(BM_MsoCompile);

}  // namespace
}  // namespace qpwm
