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
#include "qpwm/util/parallel.h"
#include "qpwm/util/random.h"
#include "qpwm/xml/encode.h"
#include "qpwm/xml/xpath.h"
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

// --- Arena neighborhood extraction vs fresh extraction -----------------------

TEST(LayoutEquivTest, ArenaExtractionMatchesFreshAcrossRebinds) {
  Rng rng(17);
  const Structure g1 = RandomBoundedDegreeGraph(300, 3, 900, false, rng);
  const Structure g2 = GridGraph(10, 8);
  const GaifmanGraph gg1(g1), gg2(g2);
  const IncidenceIndex idx1(g1), idx2(g2);
  NeighborhoodScratch scratch;  // rebinds between structures
  for (int round = 0; round < 3; ++round) {
    const bool first = round % 2 == 0;
    const Structure& g = first ? g1 : g2;
    const GaifmanGraph& gg = first ? gg1 : gg2;
    const IncidenceIndex& idx = first ? idx1 : idx2;
    for (int i = 0; i < 40; ++i) {
      const Tuple c = {static_cast<ElemId>(rng.Below(g.universe_size()))};
      for (uint32_t rho = 0; rho <= 2; ++rho) {
        const Neighborhood fresh = ExtractNeighborhood(g, gg, idx, c, rho);
        const Neighborhood& arena =
            ExtractNeighborhoodInto(g, gg, idx, c, rho, scratch);
        EXPECT_EQ(arena.distinguished, fresh.distinguished);
        EXPECT_EQ(arena.global_ids, fresh.global_ids);
        EXPECT_TRUE(SameStructure(arena.local, fresh.local));
        EXPECT_EQ(CanonicalForm(arena.local, arena.distinguished),
                  CanonicalForm(fresh.local, fresh.distinguished));
      }
    }
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
  const GaifmanGraph gg(grid);
  const IncidenceIndex idx(grid);
  CanonKeyScratch key_scratch;
  NeighborhoodScratch nb_scratch;
  std::vector<uint32_t> ids;
  for (ElemId e = 0; e < grid.universe_size(); ++e) {
    const Neighborhood& nb =
        ExtractNeighborhoodInto(grid, gg, idx, {e}, 2, nb_scratch);
    const uint32_t id = cache.CanonicalId(nb.local, nb.distinguished, key_scratch);
    // The interned string behind the id is the true canonical form.
    EXPECT_EQ(cache.CanonicalOfId(id),
              CanonicalForm(nb.local, nb.distinguished));
    // Asking again is a hit and returns the same id.
    EXPECT_EQ(cache.CanonicalId(nb.local, nb.distinguished, key_scratch), id);
    ids.push_back(id);
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
