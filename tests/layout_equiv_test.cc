// Layout-equivalence suite for the flat-memory (CSR) storage layer: every
// hot-path rewrite — flat tuple storage, CSR incidence/adjacency, arena
// neighborhood extraction, pooled detection scratch — must be a pure layout
// change. These tests pin the observable behavior to naive references, on
// grid, random bounded-degree, and XML-encoded instances, across thread
// counts {1, 2, 8}.
//
// The across-thread tests double as the TSan coverage for scratch-arena
// reuse: TypeAll and DetectMany hand pooled scratch (NeighborhoodScratch,
// DetectScratch) to real worker threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <set>
#include <vector>

#include "qpwm/core/adversarial.h"
#include "qpwm/core/answers.h"
#include "qpwm/core/attack.h"
#include "qpwm/core/local_scheme.h"
#include "qpwm/core/tree_scheme.h"
#include "qpwm/logic/query.h"
#include "qpwm/structure/canon_cache.h"
#include "qpwm/structure/gaifman.h"
#include "qpwm/structure/generators.h"
#include "qpwm/structure/isomorphism.h"
#include "qpwm/structure/neighborhood.h"
#include "qpwm/structure/structure.h"
#include "qpwm/structure/typemap.h"
#include "qpwm/tree/mso.h"
#include "qpwm/util/parallel.h"
#include "qpwm/util/random.h"
#include "qpwm/xml/encode.h"
#include "qpwm/xml/xpath.h"
#include "reference_extraction.h"
#include "reference_index.h"
#include "reference_observe.h"

namespace qpwm {
namespace {

// Restores the ambient thread setting however a test exits.
struct ThreadGuard {
  ~ThreadGuard() { SetParallelThreads(0); }
};

std::vector<Tuple> Materialize(const Relation& rel) {
  std::vector<Tuple> out;
  for (TupleRef t : rel.tuples()) out.push_back(t.ToTuple());
  return out;
}

bool SameStructure(const Structure& a, const Structure& b) {
  if (a.universe_size() != b.universe_size() ||
      a.num_relations() != b.num_relations()) {
    return false;
  }
  for (size_t r = 0; r < a.num_relations(); ++r) {
    if (Materialize(a.relation(r)) != Materialize(b.relation(r))) return false;
  }
  return true;
}

bool SameObservations(const std::vector<PairObservation>& a,
                      const std::vector<PairObservation>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].delta != b[i].delta || a[i].erased != b[i].erased) return false;
  }
  return true;
}

bool SameDetection(const AdversarialDetection& a, const AdversarialDetection& b) {
  if (a.mark.size() != b.mark.size() || a.margins != b.margins ||
      a.vote_diffs != b.vote_diffs || a.votes_cast != b.votes_cast ||
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

// --- Relation: flat CSR storage vs set semantics -----------------------------

TEST(LayoutEquivTest, RelationFlatStorageMatchesSetSemantics) {
  Rng rng(7);
  Relation rel("R", 2);
  std::set<Tuple> reference;
  for (int i = 0; i < 500; ++i) {
    Tuple t = {static_cast<ElemId>(rng.Below(40)),
               static_cast<ElemId>(rng.Below(40))};
    rel.Add(t);  // duplicates must dedup
    reference.insert(t);
  }
  ASSERT_EQ(rel.size(), reference.size());
  for (const Tuple& t : reference) EXPECT_TRUE(rel.Contains(t));
  EXPECT_FALSE(rel.Contains(Tuple{41, 0}));
  EXPECT_FALSE(rel.Contains(Tuple{0}));  // wrong arity

  rel.Seal();
  // Sorted, still deduplicated, and tuple(i) agrees with tuples()[i].
  std::vector<Tuple> sorted = Materialize(rel);
  EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
  EXPECT_EQ(std::vector<Tuple>(reference.begin(), reference.end()), sorted);
  for (size_t i = 0; i < rel.size(); ++i) {
    EXPECT_TRUE(rel.tuple(i) == rel.tuples()[i]);
    EXPECT_TRUE(rel.Contains(rel.tuple(i)));
  }
}

TEST(LayoutEquivTest, RelationSwapFlatAndClearKeepCapacity) {
  Relation rel("R", 2);
  std::vector<ElemId> a = {0, 1, 2, 3};
  std::vector<ElemId> b = {5, 6};
  rel.SwapFlatUnchecked(a);
  ASSERT_EQ(rel.size(), 2u);
  EXPECT_TRUE(rel.Contains(Tuple{0, 1}));
  EXPECT_TRUE(rel.Contains(Tuple{2, 3}));
  // Swapping in `b` hands the previous {0,1,2,3} storage back out in `b`;
  // cycling it back in round-trips without reallocation.
  rel.SwapFlatUnchecked(b);
  ASSERT_EQ(rel.size(), 1u);
  EXPECT_TRUE(rel.Contains(Tuple{5, 6}));
  EXPECT_FALSE(rel.Contains(Tuple{0, 1}));
  EXPECT_EQ(b, (std::vector<ElemId>{0, 1, 2, 3}));
  rel.SwapFlatUnchecked(b);
  ASSERT_EQ(rel.size(), 2u);
  EXPECT_TRUE(rel.Contains(Tuple{2, 3}));

  const size_t bytes_before = rel.BytesResident();
  rel.ClearKeepCapacity();
  EXPECT_EQ(rel.size(), 0u);
  EXPECT_FALSE(rel.Contains(Tuple{0, 1}));
  EXPECT_EQ(rel.BytesResident(), bytes_before);  // capacity retained
  rel.Add({9, 9});
  EXPECT_TRUE(rel.Contains(Tuple{9, 9}));
  EXPECT_EQ(rel.size(), 1u);
}

// --- CSR incidence/adjacency vs naive references -----------------------------

void CheckGraphIndexes(const Structure& g) {
  const GaifmanGraph gg(g);
  const IncidenceIndex idx(g);
  const TupleIncidence tuple_inc(g);
  for (ElemId e = 0; e < g.universe_size(); ++e) {
    // Naive adjacency: co-occurrence in any tuple of any relation.
    std::set<ElemId> naive_adj;
    std::vector<std::pair<uint32_t, uint32_t>> naive_inc;
    for (size_t r = 0; r < g.num_relations(); ++r) {
      const TupleList tuples = g.relation(r).tuples();
      for (size_t ti = 0; ti < tuples.size(); ++ti) {
        const TupleRef t = tuples[ti];
        if (std::find(t.begin(), t.end(), e) == t.end()) continue;
        naive_inc.emplace_back(static_cast<uint32_t>(r),
                               static_cast<uint32_t>(ti));
        for (ElemId other : t) {
          if (other != e) naive_adj.insert(other);
        }
      }
    }
    const auto nb = gg.Neighbors(e);
    std::vector<ElemId> got(nb.begin(), nb.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, std::vector<ElemId>(naive_adj.begin(), naive_adj.end()))
        << "adjacency mismatch at element " << e;
    EXPECT_EQ(gg.Degree(e), naive_adj.size());

    std::vector<std::pair<uint32_t, uint32_t>> inc;
    for (const IncidenceIndex::Entry& entry : idx.Incident(e)) {
      inc.emplace_back(entry.relation, entry.tuple_index);
    }
    std::sort(inc.begin(), inc.end());
    std::sort(naive_inc.begin(), naive_inc.end());
    EXPECT_EQ(inc, naive_inc) << "incidence mismatch at element " << e;

    // The inline records list the same tuples, in the same order, by value.
    std::vector<uint32_t> want_words;
    for (const auto& [r, ti] : naive_inc) {
      want_words.push_back(r);
      const TupleRef t = g.relation(r).tuple(ti);
      want_words.insert(want_words.end(), t.begin(), t.end());
    }
    const std::span<const uint32_t> words = tuple_inc.Records(e);
    EXPECT_EQ(std::vector<uint32_t>(words.begin(), words.end()), want_words)
        << "inline records mismatch at element " << e;
  }
}

TEST(LayoutEquivTest, IncidenceAndAdjacencyMatchNaiveScan) {
  Rng rng(11);
  CheckGraphIndexes(RandomBoundedDegreeGraph(300, 3, 900, false, rng));
  CheckGraphIndexes(GridGraph(9, 7));
}

TEST(LayoutEquivTest, SphereIntoMatchesAllocatingSphere) {
  Rng rng(13);
  const Structure g = RandomBoundedDegreeGraph(400, 4, 1200, false, rng);
  const GaifmanGraph gg(g);
  SphereScratch scratch;  // reused across every call below
  std::vector<ElemId> out;
  for (uint32_t rho = 0; rho <= 3; ++rho) {
    for (int i = 0; i < 50; ++i) {
      const ElemId a = static_cast<ElemId>(rng.Below(g.universe_size()));
      const ElemId b = static_cast<ElemId>(rng.Below(g.universe_size()));
      const Tuple c = {a, b};
      gg.SphereInto(c, rho, scratch, out);
      EXPECT_EQ(out, gg.Sphere(c, rho));
      gg.SphereInto({a}, rho, scratch, out);
      EXPECT_EQ(out, gg.Sphere(a, rho));
    }
  }
}

// --- Neighborhood extraction vs the sort-based reference ---------------------

// Pins one extraction of N_rho(c) to the reference extractor
// (tests/reference_extraction.h): the arena result, the allocating result
// and the fingerprint of the gathered (unsorted) records must all match.
void ExpectExtractionMatchesReference(const Structure& g, const GaifmanGraph& gg,
                                      const IncidenceIndex& idx,
                                      const TupleIncidence& inc, const Tuple& c,
                                      uint32_t rho, NeighborhoodScratch& scratch) {
  SCOPED_TRACE(testing::Message() << "rho " << rho << " c[0] " << c[0]);
  const Neighborhood reference = ReferenceExtractNeighborhood(g, gg, idx, c, rho);
  CanonKeyScratch key;
  const CanonFingerprint want =
      FingerprintOfStructure(reference.local, reference.distinguished, key);

  GatherNeighborhood(inc, c, rho, scratch);
  EXPECT_EQ(scratch.nb.global_ids, reference.global_ids);
  EXPECT_EQ(scratch.nb.distinguished, reference.distinguished);
  const CanonFingerprint gathered =
      NeighborhoodFingerprint128(scratch.nb.global_ids.size(), inc.arities(),
                                 scratch.rel_flat, scratch.nb.distinguished, key);
  EXPECT_TRUE(gathered == want);

  const Neighborhood& arena = MaterializeNeighborhood(inc, scratch);
  EXPECT_EQ(arena.distinguished, reference.distinguished);
  EXPECT_EQ(arena.global_ids, reference.global_ids);
  EXPECT_TRUE(SameStructure(arena.local, reference.local));

  const Neighborhood fresh = ExtractNeighborhood(inc, c, rho);
  EXPECT_EQ(fresh.distinguished, reference.distinguished);
  EXPECT_EQ(fresh.global_ids, reference.global_ids);
  EXPECT_TRUE(SameStructure(fresh.local, reference.local));
}

TEST(LayoutEquivTest, ArenaExtractionMatchesFreshAcrossRebinds) {
  Rng rng(17);
  const Structure g1 = RandomBoundedDegreeGraph(300, 3, 900, false, rng);
  const Structure g2 = GridGraph(10, 8);
  const XmlDocument doc = RandomSchoolDocument(30, rng, 0, 20, 2);
  const EncodedXml enc = EncodeXml(doc, {"exam"}).ValueOrDie();
  const Structure g3 = TreeToStructure(enc.tree, enc.sigma);
  const std::vector<const Structure*> instances = {&g1, &g2, &g3};
  std::vector<std::unique_ptr<GaifmanGraph>> ggs;
  std::vector<std::unique_ptr<IncidenceIndex>> idxs;
  std::vector<std::unique_ptr<TupleIncidence>> incs;
  for (const Structure* g : instances) {
    ggs.push_back(std::make_unique<GaifmanGraph>(*g));
    idxs.push_back(std::make_unique<IncidenceIndex>(*g));
    incs.push_back(std::make_unique<TupleIncidence>(*g));
  }
  NeighborhoodScratch scratch;  // rebinds between structures
  for (int round = 0; round < 6; ++round) {
    const size_t which = static_cast<size_t>(round) % instances.size();
    const Structure& g = *instances[which];
    for (int i = 0; i < 40; ++i) {
      const ElemId a = static_cast<ElemId>(rng.Below(g.universe_size()));
      const ElemId b = static_cast<ElemId>(rng.Below(g.universe_size()));
      for (uint32_t rho = 0; rho <= 2; ++rho) {
        for (const Tuple& c : {Tuple{a}, Tuple{a, b}}) {
          ExpectExtractionMatchesReference(g, *ggs[which], *idxs[which],
                                           *incs[which], c, rho, scratch);
        }
      }
    }
  }
}

// Shapes the generators never produce: a ternary relation, a tuple with a
// repeated element, a unary relation, a self-loop, a nullary relation,
// rho = 0, and parameter tuples that repeat an element.
TEST(LayoutEquivTest, ExtractionMatchesReferenceOnHandBuiltCases) {
  Signature sig;
  sig.AddRelation("T", 3);
  sig.AddRelation("E", 2);
  sig.AddRelation("P", 1);
  sig.AddRelation("Z", 0);
  Structure g(sig, 9);
  g.AddTuple("T", {0, 0, 1});  // (x, x, y)
  g.AddTuple("T", {1, 2, 3});
  g.AddTuple("T", {5, 4, 3});
  g.AddTuple("E", {2, 2});     // self-loop
  g.AddTuple("E", {3, 6});
  g.AddTuple("E", {6, 3});
  g.AddTuple("E", {7, 6});
  g.AddTuple("P", {1});
  g.AddTuple("P", {6});
  g.AddTuple("P", {8});        // isolated in the Gaifman graph
  g.AddTuple("Z", {});
  g.Seal();
  const GaifmanGraph gg(g);
  const IncidenceIndex idx(g);
  const TupleIncidence inc(g);
  NeighborhoodScratch scratch;
  for (uint32_t rho = 0; rho <= 3; ++rho) {
    for (ElemId x = 0; x < g.universe_size(); ++x) {
      ExpectExtractionMatchesReference(g, gg, idx, inc, {x}, rho, scratch);
      ExpectExtractionMatchesReference(g, gg, idx, inc, {x, x}, rho, scratch);
      const ElemId y = (x + 3) % static_cast<ElemId>(g.universe_size());
      ExpectExtractionMatchesReference(g, gg, idx, inc, {x, y, x}, rho, scratch);
    }
  }
}

// --- QueryIndex: flat build vs the map-based reference -----------------------

void ExpectIndexMatchesReference(const Structure& g, const ParametricQuery& query,
                                 const std::vector<Tuple>& domain,
                                 const std::vector<Tuple>& probes) {
  const ReferenceIndex reference(g, query, domain);
  const QueryIndex index(g, query, domain);
  ASSERT_EQ(index.num_params(), reference.domain.size());
  ASSERT_EQ(index.num_active(), reference.active.size());
  for (size_t i = 0; i < index.num_params(); ++i) {
    EXPECT_EQ(index.param(i), reference.domain[i]);
    const std::span<const uint32_t> row = index.ResultFor(i);
    EXPECT_EQ(std::vector<uint32_t>(row.begin(), row.end()), reference.results[i])
        << "row of param " << i;
    Result<size_t> found = index.FindParam(reference.domain[i]);
    ASSERT_TRUE(found.ok());
    EXPECT_EQ(found.value(), reference.FindParam(reference.domain[i]).value());
  }
  for (size_t w = 0; w < index.num_active(); ++w) {
    EXPECT_EQ(index.active_element(w), reference.active[w]);
    const std::span<const uint32_t> params = index.ParamsContaining(w);
    EXPECT_EQ(std::vector<uint32_t>(params.begin(), params.end()),
              reference.containing[w])
        << "inverse list of active " << w;
    Result<size_t> found = index.FindActive(reference.active[w]);
    ASSERT_TRUE(found.ok());
    EXPECT_EQ(found.value(), w);
    if (index.has_unary_actives()) {
      EXPECT_EQ(index.ActiveIdOfElem(reference.active[w][0]), static_cast<int32_t>(w));
    }
  }
  for (const Tuple& probe : probes) {
    const std::optional<size_t> param = reference.FindParam(probe);
    const Result<size_t> got_param = index.FindParam(probe);
    ASSERT_EQ(got_param.ok(), param.has_value());
    if (param) {
      EXPECT_EQ(got_param.value(), *param);
    } else {
      EXPECT_EQ(got_param.status().code(), StatusCode::kNotFound);
    }
    const std::optional<size_t> active = reference.FindActive(probe);
    const Result<size_t> got_active = index.FindActive(probe);
    ASSERT_EQ(got_active.ok(), active.has_value());
    if (active) {
      EXPECT_EQ(got_active.value(), *active);
    } else {
      EXPECT_EQ(got_active.status().code(), StatusCode::kNotFound);
    }
  }
}

TEST(LayoutEquivTest, QueryIndexMatchesMapReferenceAcrossThreads) {
  ThreadGuard guard;
  Rng rng(29);
  const Structure random = RandomBoundedDegreeGraph(400, 3, 1200, false, rng);
  const Structure grid = GridGraph(12, 9);
  const auto atom = AtomQuery::Adjacency("E");
  const DistanceQuery distance(2);
  // Each parameter u answers the edges at u as ordered pairs (shared with
  // the other endpoint's answer), plus its first row again as a duplicate.
  const CallbackQuery edges(
      "edges-at", 1, 2, [](const Structure& g, const Tuple& params) {
        std::vector<Tuple> out;
        for (TupleRef t : g.relation(size_t{0}).tuples()) {
          if (t[0] == params[0] || t[1] == params[0]) {
            out.push_back({std::min(t[0], t[1]), std::max(t[0], t[1])});
          }
        }
        if (!out.empty()) out.push_back(out.front());
        return out;
      });
  // A domain that repeats a parameter and names elements outside the
  // universe (the atom query answers those empty).
  std::vector<Tuple> atom_domain = AllParams(random, 1);
  atom_domain.push_back({5});
  atom_domain.push_back({4000000000u});
  const std::vector<Tuple> probes = {
      {},  {3}, {5}, {4000000000u}, {1, 2}, {2, 1}, {0, 1, 2}, {399}, {400},
      {7, 7}};
  for (size_t threads : {size_t{1}, size_t{8}}) {
    SetParallelThreads(threads);
    SCOPED_TRACE(testing::Message() << threads << " threads");
    ExpectIndexMatchesReference(random, *atom, atom_domain, probes);
    ExpectIndexMatchesReference(grid, distance, AllParams(grid, 1), probes);
    ExpectIndexMatchesReference(random, edges, AllParams(random, 1), probes);
    // Probe the pair index with tuples it holds and tuples it does not.
    std::vector<Tuple> pair_probes = probes;
    for (TupleRef t : random.relation(size_t{0}).tuples()) {
      pair_probes.push_back({t[0], t[1]});
      if (pair_probes.size() > 60) break;
    }
    ExpectIndexMatchesReference(random, edges, AllParams(random, 1), pair_probes);
  }
}

// --- Typing and planning: cached vs uncached, across threads -----------------

TEST(LayoutEquivTest, CachedTypingMatchesUncachedAcrossThreads) {
  ThreadGuard guard;
  Rng rng(19);
  const Structure random = RandomBoundedDegreeGraph(500, 3, 1500, false, rng);
  const Structure grid = GridGraph(14, 11);
  for (const Structure* g : {&random, &grid}) {
    std::vector<Tuple> domain;
    for (ElemId e = 0; e < g->universe_size(); ++e) domain.push_back({e});
    SetParallelThreads(1);
    NeighborhoodTyper uncached(*g, 2, nullptr);
    const std::vector<uint32_t> reference = uncached.TypeAll(domain);
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      SetParallelThreads(threads);
      CanonCache::Global().Clear();
      NeighborhoodTyper cached(*g, 2);
      EXPECT_EQ(cached.TypeAll(domain), reference);
      EXPECT_EQ(cached.NumTypes(), uncached.NumTypes());
      for (uint32_t ty = 0; ty < cached.NumTypes(); ++ty) {
        EXPECT_EQ(cached.Representative(ty), uncached.Representative(ty));
      }
    }
  }
}

TEST(LayoutEquivTest, PlansIdenticalAcrossCacheAndThreads) {
  ThreadGuard guard;
  Rng rng(23);
  const Structure g = RandomBoundedDegreeGraph(600, 3, 1800, false, rng);
  const auto query = AtomQuery::Adjacency("E");
  const QueryIndex index(g, *query, AllParams(g, 1));
  LocalSchemeOptions opts;
  opts.rho = 2;
  opts.epsilon = 0.5;
  opts.key = {23, 24};
  // Reference: one thread, cold cache. Each thread count plans once from a
  // cold cache and once warm (the cache the cold plan just filled).
  SetParallelThreads(1);
  CanonCache::Global().Clear();
  const LocalScheme reference = LocalScheme::Plan(index, opts).ValueOrDie();
  auto expect_same = [&reference](const LocalScheme& plan) {
    EXPECT_EQ(plan.CapacityBits(), reference.CapacityBits());
    EXPECT_EQ(plan.DistortionBound(), reference.DistortionBound());
    EXPECT_EQ(plan.NumTypes(), reference.NumTypes());
    EXPECT_EQ(plan.CanonicalParams(), reference.CanonicalParams());
    const auto& pa = plan.marking().pairs();
    const auto& pb = reference.marking().pairs();
    ASSERT_EQ(pa.size(), pb.size());
    for (size_t i = 0; i < pa.size(); ++i) {
      EXPECT_EQ(pa[i].plus, pb[i].plus);
      EXPECT_EQ(pa[i].minus, pb[i].minus);
    }
  };
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SetParallelThreads(threads);
    CanonCache::Global().Clear();
    expect_same(LocalScheme::Plan(index, opts).ValueOrDie());
    expect_same(LocalScheme::Plan(index, opts).ValueOrDie());
  }
}

// --- Detection: reference reader vs scratch reuse vs DetectMany -------------

// One pooled scratch read across every suspect must match the reference
// reader (tests/reference_observe.h) suspect by suspect: the epoch logic has
// to isolate runs without any clearing. DetectMany at every thread count
// must match the serial Detect loop.
template <typename Scheme>
void ExpectReaderMatchesReference(const Scheme& scheme,
                                  const AdversarialScheme& adv,
                                  const WeightMap& original,
                                  const std::vector<const AnswerServer*>& suspects) {
  const std::vector<Weight> originals = scheme.SlotWeights(original);
  DetectScratch scratch;
  for (size_t s = 0; s < suspects.size(); ++s) {
    EXPECT_TRUE(SameObservations(
        ReferenceObservePairs(scheme, original, *suspects[s]),
        ReadPairs(scheme.witness_plan(), originals, *suspects[s], scratch)))
        << "suspect " << s;
  }

  std::vector<AdversarialDetection> reference;
  for (const AnswerServer* s : suspects) {
    reference.push_back(adv.Detect(original, *s).ValueOrDie());
  }
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SetParallelThreads(threads);
    const std::vector<AdversarialDetection> out = adv.DetectMany(original, suspects);
    ASSERT_EQ(out.size(), reference.size());
    for (size_t s = 0; s < out.size(); ++s) {
      EXPECT_TRUE(SameDetection(reference[s], out[s]))
          << "suspect " << s << " at " << threads << " threads";
    }
  }
}

TEST(LayoutEquivTest, DetectionBitIdenticalAcrossPathsAndThreads) {
  ThreadGuard guard;
  Rng rng(29);
  const Structure g = RandomBoundedDegreeGraph(400, 4, 1200, false, rng);
  DistanceQuery query(2);
  SetParallelThreads(1);
  const QueryIndex index(g, query, AllParams(g, 1));
  const WeightMap weights = RandomWeights(g, 1000, 9999, rng);
  LocalSchemeOptions opts;
  opts.epsilon = 0.05;
  opts.key = {29, 30};
  opts.encoding = PairEncoding::kAntipodal;
  const LocalScheme scheme = LocalScheme::Plan(index, opts).ValueOrDie();
  const AdversarialScheme adv(scheme, 3);
  ASSERT_GT(adv.CapacityBits(), 0u);

  // Clean marked copies, then one under 30% deletion plus insertion and one
  // carrying a duplicated row for a pair element on its own witness.
  std::vector<std::unique_ptr<HonestServer>> servers;
  std::vector<const AnswerServer*> ptrs;
  for (size_t s = 0; s < 5; ++s) {
    BitVec msg(adv.CapacityBits());
    Rng msg_rng(100 + s);
    for (size_t i = 0; i < msg.size(); ++i) msg.Set(i, msg_rng.Coin());
    servers.push_back(
        std::make_unique<HonestServer>(index, adv.Embed(weights, msg)));
    ptrs.push_back(servers.back().get());
  }
  TamperedAnswerServer attacked(*servers[0]);
  for (const Tuple& t : SubsetDeletionAttack(index, 0.3, rng)) attacked.Erase(t);
  TupleInsertionAttack(attacked, index, servers[0]->weights(),
                       index.num_active() / 4, rng);
  ptrs.push_back(&attacked);
  const uint32_t plus = scheme.marking().pairs()[0].plus;
  TamperedAnswerServer duplicated(*servers[1]);
  duplicated.InsertAt(index.param(index.ParamsContaining(plus)[0]),
                      {index.active_element(plus), 7});
  ptrs.push_back(&duplicated);

  ExpectReaderMatchesReference(scheme, adv, weights, ptrs);
}

TEST(LayoutEquivTest, XmlTreeDetectionBitIdenticalAcrossPathsAndThreads) {
  ThreadGuard guard;
  Rng rng(31);
  const XmlDocument doc = RandomSchoolDocument(40, rng, 0, 20, 2);
  const EncodedXml enc = EncodeXml(doc, {"exam"}).ValueOrDie();
  const XPathQuery query =
      XPathQuery::Parse("school/student[firstname=$1]/exam").ValueOrDie();
  const TrackedDta dta = query.Compile(enc).ValueOrDie();
  const auto sigma = static_cast<uint32_t>(enc.sigma.size());
  TreeSchemeOptions opts;
  opts.key = {31, 32};
  opts.encoding = PairEncoding::kAntipodal;
  const TreeScheme scheme =
      TreeScheme::Plan(enc.tree, enc.tree.labels(), sigma, dta.dta, 1, opts)
          .ValueOrDie();
  const AdversarialScheme adv(scheme, 3);
  ASSERT_GT(adv.CapacityBits(), 0u);

  std::vector<std::unique_ptr<HonestTreeServer>> servers;
  std::vector<const AnswerServer*> ptrs;
  for (size_t s = 0; s < 4; ++s) {
    BitVec msg(adv.CapacityBits());
    Rng msg_rng(200 + s);
    for (size_t i = 0; i < msg.size(); ++i) msg.Set(i, msg_rng.Coin());
    servers.push_back(std::make_unique<HonestTreeServer>(
        enc.tree, enc.tree.labels(), sigma, dta.dta, 1,
        adv.Embed(enc.weights, msg)));
    ptrs.push_back(servers.back().get());
  }
  TamperedAnswerServer attacked(*servers[0]);
  for (NodeId v = 0; v < enc.tree.size(); ++v) {
    if (rng.Bernoulli(0.3)) attacked.Erase(Tuple{v});
  }
  for (const TreeScheme::DetectablePair& pair : scheme.pairs()) {
    attacked.InsertAt(pair.witness,
                      {Tuple{static_cast<ElemId>(enc.tree.size() + 3)}, 5});
  }
  ptrs.push_back(&attacked);
  TamperedAnswerServer duplicated(*servers[1]);
  duplicated.InsertAt(scheme.pairs()[0].witness,
                      {Tuple{scheme.pairs()[0].b_minus}, 7});
  ptrs.push_back(&duplicated);

  ExpectReaderMatchesReference(scheme, adv, enc.weights, ptrs);
}

// --- CanonCache: fingerprint fast path and stats -----------------------------

TEST(LayoutEquivTest, CanonCacheIdsAndStatsConsistent) {
  CanonCache& cache = CanonCache::Global();
  cache.Clear();
  const Structure grid = GridGraph(10, 9);
  const TupleIncidence inc(grid);
  CanonKeyScratch key_scratch;
  NeighborhoodScratch nb_scratch;
  std::vector<uint32_t> ids;
  for (ElemId e = 0; e < grid.universe_size(); ++e) {
    GatherNeighborhood(inc, {e}, 2, nb_scratch);
    const CanonFingerprint fp = NeighborhoodFingerprint128(
        nb_scratch.nb.global_ids.size(), inc.arities(), nb_scratch.rel_flat,
        nb_scratch.nb.distinguished, key_scratch);
    const Neighborhood& nb = MaterializeNeighborhood(inc, nb_scratch);
    std::optional<uint32_t> id = cache.Lookup(fp);
    if (!id) id = cache.Insert(fp, nb.local, nb.distinguished);
    // The interned string behind the id is the true canonical form.
    EXPECT_EQ(cache.CanonicalOfId(*id),
              CanonicalForm(nb.local, nb.distinguished));
    // Asking again is a hit and returns the same id.
    EXPECT_EQ(cache.Lookup(fp), id);
    ids.push_back(*id);
  }
  const CanonCache::Stats stats = cache.stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
  const std::set<uint32_t> distinct(ids.begin(), ids.end());
  EXPECT_EQ(stats.distinct_forms, distinct.size());
  EXPECT_GE(stats.entries, stats.distinct_forms);
  EXPECT_GT(stats.bytes_resident, 0u);
  EXPECT_GE(static_cast<double>(stats.shard_max), stats.shard_mean);
  EXPECT_GT(stats.shard_mean, 0.0);
}

}  // namespace
}  // namespace qpwm
