// Contract of the detection serving layer: the shared pair reader matches the
// one-Answer()-per-read reference (tests/reference_observe.h) on clean,
// attacked and duplicate-row suspects, for unary and arity-2 results and for
// both schemes; a duplicated answer row erases its read; honest servers agree
// with sparse WeightMap reads, in and out of the domain; and detections are
// bit-identical for any thread count of the multi-suspect fan-out.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "qpwm/core/adversarial.h"
#include "qpwm/core/answers.h"
#include "qpwm/core/attack.h"
#include "qpwm/core/local_scheme.h"
#include "qpwm/core/tree_scheme.h"
#include "qpwm/logic/parser.h"
#include "qpwm/logic/query.h"
#include "qpwm/stream/stream_server.h"
#include "qpwm/structure/generators.h"
#include "qpwm/tree/mso.h"
#include "qpwm/tree/query.h"
#include "qpwm/util/parallel.h"
#include "qpwm/util/random.h"
#include "reference_observe.h"

namespace qpwm {
namespace {

// Restores the configured thread count even when a test fails mid-way.
class ThreadGuard {
 public:
  ThreadGuard() = default;
  ~ThreadGuard() { SetParallelThreads(0); }
};

// A planned local-scheme workload shared by the detection tests.
struct LocalWorkload {
  Structure g;
  std::unique_ptr<ParametricQuery> query;
  std::optional<QueryIndex> index;
  std::optional<WeightMap> weights;
  std::optional<LocalScheme> scheme;

  static LocalWorkload Build(uint64_t seed, size_t n = 400) {
    LocalWorkload wl;
    Rng rng(seed);
    wl.g = RandomBoundedDegreeGraph(n, 3, 3 * n, false, rng);
    wl.query = AtomQuery::Adjacency("E");
    wl.index.emplace(wl.g, *wl.query, AllParams(wl.g, 1));
    wl.weights.emplace(RandomWeights(wl.g, 1000, 9999, rng));
    LocalSchemeOptions opts;
    opts.epsilon = 0.25;
    opts.key = {seed, seed + 1};
    opts.encoding = PairEncoding::kAntipodal;
    wl.scheme.emplace(LocalScheme::Plan(*wl.index, opts).ValueOrDie());
    return wl;
  }
};

void ExpectSameAnswers(const AnswerSet& a, const AnswerSet& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].element, b[i].element) << "row " << i;
    EXPECT_EQ(a[i].weight, b[i].weight) << "row " << i;
  }
}

void ExpectSameObservations(const std::vector<PairObservation>& a,
                            const std::vector<PairObservation>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].erased, b[i].erased) << "pair " << i;
    if (!a[i].erased && !b[i].erased) {
      EXPECT_EQ(a[i].delta, b[i].delta) << "pair " << i;
    }
  }
}

void ExpectSameDetections(const AdversarialDetection& a,
                          const AdversarialDetection& b) {
  ASSERT_EQ(a.mark.size(), b.mark.size());
  for (size_t i = 0; i < a.mark.size(); ++i) {
    EXPECT_EQ(a.mark.Get(i), b.mark.Get(i)) << "bit " << i;
  }
  EXPECT_EQ(a.margins, b.margins);
  EXPECT_EQ(a.min_margin, b.min_margin);
  EXPECT_EQ(a.group_sizes, b.group_sizes);
  EXPECT_EQ(a.bit_erased, b.bit_erased);
  EXPECT_EQ(a.pairs_erased, b.pairs_erased);
  EXPECT_EQ(a.bits_recovered, b.bits_recovered);
  EXPECT_EQ(a.bits_erased, b.bits_erased);
}

// The rows an honest server must serve for `params`, read straight from the
// index (or evaluated, outside the domain) and the sparse WeightMap.
AnswerSet SparseAnswers(const QueryIndex& index, const WeightMap& weights,
                        const Tuple& params) {
  AnswerSet out;
  auto idx = index.FindParam(params);
  if (idx.ok()) {
    for (uint32_t w : index.ResultFor(idx.value())) {
      out.push_back({index.active_element(w), weights.Get(index.active_element(w))});
    }
    return out;
  }
  for (const Tuple& t : index.query().Evaluate(index.structure(), params)) {
    out.push_back({t, weights.Get(t)});
  }
  return out;
}

// Plants a second row for pair element `element` on its own witness: the
// reader must erase that read rather than pick either copy.
void PlantDuplicate(TamperedAnswerServer& server, const Tuple& witness,
                    const Tuple& element) {
  server.InsertAt(witness, {element, 424242});
}

// Every pair reads as in `clean` except pair `erased_pair`, which is erased.
void ExpectOnlyPairErased(const std::vector<PairObservation>& clean,
                          const std::vector<PairObservation>& observed,
                          size_t erased_pair) {
  ASSERT_EQ(clean.size(), observed.size());
  ASSERT_FALSE(clean[erased_pair].erased);
  for (size_t i = 0; i < clean.size(); ++i) {
    if (i == erased_pair) {
      EXPECT_TRUE(observed[i].erased) << "duplicated pair " << i;
      continue;
    }
    EXPECT_EQ(observed[i].erased, clean[i].erased) << "pair " << i;
    if (!clean[i].erased) {
      EXPECT_EQ(observed[i].delta, clean[i].delta) << "pair " << i;
    }
  }
}

// --- Dense weight views ----------------------------------------------------

TEST(DenseViewTest, MatchesSparseReads) {
  LocalWorkload wl = LocalWorkload::Build(11);
  const QueryIndex& index = *wl.index;
  const WeightMap& weights = *wl.weights;
  DenseWeightView view(index, weights);
  ASSERT_EQ(view.size(), index.num_active());
  for (size_t w = 0; w < index.num_active(); ++w) {
    ASSERT_EQ(view.at(w), weights.Get(index.active_element(w)));
  }
  HonestServer server(index, weights);
  for (const Tuple& p : index.domain()) {
    ExpectSameAnswers(server.Answer(p), SparseAnswers(index, weights, p));
  }
}

TEST(DenseViewTest, HonestServerDenseAgreesWithSparseIncludingOutOfDomain) {
  Rng rng(12);
  Structure g = RandomBoundedDegreeGraph(200, 3, 600, false, rng);
  auto query = AtomQuery::Adjacency("E");
  // Register only part of the domain so some parameters are served through
  // the direct-evaluation fallback rather than the index (and its view).
  std::vector<Tuple> domain = AllParams(g, 1);
  std::vector<Tuple> held_out(domain.end() - 20, domain.end());
  domain.resize(domain.size() - 20);
  QueryIndex index(g, *query, domain);
  WeightMap weights = RandomWeights(g, 1000, 9999, rng);

  HonestServer server(index, weights);
  std::vector<Tuple> all = domain;
  all.insert(all.end(), held_out.begin(), held_out.end());
  FlatAnswerBatch flat;
  server.AnswerAllFlat(all, flat);
  ASSERT_EQ(flat.num_params(), all.size());
  for (size_t i = 0; i < all.size(); ++i) {
    if (i >= domain.size()) {
      ASSERT_FALSE(index.FindParam(all[i]).ok());
    }
    const AnswerSet expected = SparseAnswers(index, weights, all[i]);
    ExpectSameAnswers(server.Answer(all[i]), expected);
    AnswerSet from_flat;
    for (uint32_t r = flat.param_offsets[i]; r < flat.param_offsets[i + 1]; ++r) {
      from_flat.push_back({Tuple(flat.elems.begin() + flat.elem_offsets[r],
                                 flat.elems.begin() + flat.elem_offsets[r + 1]),
                           flat.weights[r]});
    }
    ExpectSameAnswers(from_flat, expected);
  }
}

TEST(DenseViewTest, MutationInvalidatesViewAndRefreshRestoresIt) {
  // Servers are immutable: a weight write reaches readers only through the
  // next sealed epoch. The retired snapshot keeps serving the weight it froze
  // (it is never mutated under a reader), and the new epoch serves the write.
  LocalWorkload wl = LocalWorkload::Build(13, 100);
  const QueryIndex& index = *wl.index;
  ASSERT_GT(index.num_active(), 0u);

  StreamServer stream(*wl.scheme, *wl.weights, *wl.weights);
  const std::shared_ptr<const StreamSnapshot> before = stream.snapshot();
  ASSERT_FALSE(before->retired());

  const Tuple target = index.active_element(0);
  Update write;
  write.kind = UpdateKind::kWeightWrite;
  write.elem = target[0];
  write.delta = 17;
  ASSERT_TRUE(stream.Submit(write).ok());
  // Staged, not served: the live snapshot is unchanged until the seal.
  EXPECT_EQ(stream.snapshot(), before);

  const Tuple witness = index.param(index.ParamsContaining(0)[0]);
  auto find_weight = [&](const AnswerSet& rows) -> std::optional<Weight> {
    for (const AnswerRow& row : rows) {
      if (row.element == target) return row.weight;
    }
    return std::nullopt;
  };
  const Weight old_weight = wl.weights->Get(target);
  ASSERT_EQ(find_weight(before->serving->Answer(witness)), old_weight);

  const std::shared_ptr<const StreamSnapshot> after = stream.SealEpoch();
  EXPECT_TRUE(before->retired());
  EXPECT_FALSE(after->retired());
  EXPECT_EQ(stream.snapshot(), after);
  EXPECT_EQ(find_weight(before->serving->Answer(witness)), old_weight);
  ASSERT_EQ(find_weight(after->serving->Answer(witness)), old_weight + 17);
}

TEST(DenseViewTest, BatchedDetectionSeesMutationAfterRefresh) {
  // Full detection (not just answer reads) through the sealed epoch after a
  // weight write: it must match a fresh server over the written weights
  // bit-for-bit, while the retired snapshot still detects the original mark.
  LocalWorkload wl = LocalWorkload::Build(14, 300);
  const QueryIndex& index = *wl.index;
  AdversarialScheme adv(*wl.scheme, 3);
  ASSERT_GT(adv.CapacityBits(), 0u);
  Rng rng(140);
  BitVec msg(adv.CapacityBits());
  for (size_t i = 0; i < msg.size(); ++i) msg.Set(i, rng.Coin());
  const WeightMap marked = adv.Embed(*wl.weights, msg);

  StreamServer stream(*wl.scheme, *wl.weights, marked);
  const std::shared_ptr<const StreamSnapshot> before = stream.snapshot();
  const AdversarialDetection detected_before =
      adv.Detect(*wl.weights, *before->serving).ValueOrDie();
  EXPECT_EQ(detected_before.mark, msg);

  // Write to a mark-carrying weight and publish it.
  const Tuple target = index.active_element(wl.scheme->marking().pairs()[0].plus);
  Update write;
  write.kind = UpdateKind::kWeightWrite;
  write.elem = target[0];
  write.delta = 1000;
  ASSERT_TRUE(stream.Submit(write).ok());
  const std::shared_ptr<const StreamSnapshot> after = stream.SealEpoch();
  EXPECT_TRUE(before->retired());
  ExpectSameDetections(detected_before,
                       adv.Detect(*wl.weights, *before->serving).ValueOrDie());

  WeightMap written = marked;
  written.Add(target, 1000);
  HonestServer fresh(*after->index, written);
  ExpectSameDetections(adv.Detect(*wl.weights, *after->serving).ValueOrDie(),
                       adv.Detect(*wl.weights, fresh).ValueOrDie());
}

// --- Batched answer serving ------------------------------------------------

TEST(BatchDetectTest, TamperedBatchMatchesPerCallAnswers) {
  LocalWorkload wl = LocalWorkload::Build(21, 200);
  const QueryIndex& index = *wl.index;
  HonestServer base(index, *wl.weights);
  TamperedAnswerServer server(base);
  Rng rng(210);
  for (const Tuple& t : SubsetDeletionAttack(index, 0.3, rng)) server.Erase(t);
  TupleInsertionAttack(server, index, base.weights(), index.num_active() / 4, rng);
  ASSERT_GT(server.num_erased(), 0u);

  const std::vector<Tuple>& params = index.domain();
  std::vector<AnswerSet> batch = server.AnswerBatch(params);
  ASSERT_EQ(batch.size(), params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    ExpectSameAnswers(batch[i], server.Answer(params[i]));
  }
}

TEST(BatchDetectTest, LocalObservationsMatchReference) {
  LocalWorkload wl = LocalWorkload::Build(22);
  const LocalScheme& scheme = *wl.scheme;
  const QueryIndex& index = *wl.index;
  ASSERT_GT(scheme.CapacityBits(), 0u);

  BitVec mark(scheme.CapacityBits());
  Rng rng(220);
  for (size_t i = 0; i < mark.size(); ++i) mark.Set(i, rng.Coin());
  HonestServer base(index, scheme.Embed(*wl.weights, mark));

  // Clean suspect.
  ExpectSameObservations(ReferenceObservePairs(scheme, *wl.weights, base),
                         LibraryReadPairs(scheme, *wl.weights, base));

  // 30% deletion plus insertion.
  TamperedAnswerServer attacked(base);
  for (const Tuple& t : SubsetDeletionAttack(index, 0.3, rng)) attacked.Erase(t);
  TupleInsertionAttack(attacked, index, base.weights(), index.num_active() / 4, rng);
  attacked.InsertAt(index.param(0), {Tuple{}, 5});  // a row with no element
  const std::vector<PairObservation> reference =
      ReferenceObservePairs(scheme, *wl.weights, attacked);
  size_t erased = 0;
  for (const PairObservation& obs : reference) erased += obs.erased;
  ASSERT_GT(erased, 0u) << "attack too weak to exercise the erasure path";
  ASSERT_LT(erased, reference.size()) << "attack erased every pair";
  ExpectSameObservations(reference, LibraryReadPairs(scheme, *wl.weights, attacked));

  // A duplicated row for pair 0's minus element on its own witness.
  const uint32_t minus = scheme.marking().pairs()[0].minus;
  TamperedAnswerServer duplicated(base);
  PlantDuplicate(duplicated, index.param(index.ParamsContaining(minus)[0]),
                 index.active_element(minus));
  ExpectSameObservations(ReferenceObservePairs(scheme, *wl.weights, duplicated),
                         LibraryReadPairs(scheme, *wl.weights, duplicated));
}

TEST(BatchDetectTest, AdversarialDetectionMatchesReference) {
  LocalWorkload wl = LocalWorkload::Build(23);
  const size_t redundancy = 5;
  AdversarialScheme adv(*wl.scheme, redundancy);
  ASSERT_GT(adv.CapacityBits(), 0u);

  BitVec msg(adv.CapacityBits());
  Rng rng(230);
  for (size_t i = 0; i < msg.size(); ++i) msg.Set(i, rng.Coin());
  HonestServer base(*wl.index, adv.Embed(*wl.weights, msg));
  TamperedAnswerServer server(base);
  for (const Tuple& t : SubsetDeletionAttack(*wl.index, 0.3, rng)) server.Erase(t);

  // The majority vote over the reference observations, group by group.
  const std::vector<PairObservation> reference =
      ReferenceObservePairs(*wl.scheme, *wl.weights, server);
  const AdversarialDetection detected = adv.Detect(*wl.weights, server).ValueOrDie();
  EXPECT_GT(detected.pairs_erased, 0u);
  size_t erased = 0;
  for (size_t j = 0; j < adv.CapacityBits(); ++j) {
    int32_t diff = 0;
    uint32_t surviving = 0;
    for (size_t k = 0; k < redundancy; ++k) {
      const PairObservation& obs = reference[j * redundancy + k];
      if (obs.erased) {
        ++erased;
        continue;
      }
      ++surviving;
      diff += (obs.delta > 0) - (obs.delta < 0);
    }
    EXPECT_EQ(detected.group_sizes[j], surviving) << "bit " << j;
    EXPECT_EQ(detected.vote_diffs[j], diff) << "bit " << j;
    if (surviving > 0) {
      EXPECT_EQ(detected.mark.Get(j), diff >= 0) << "bit " << j;
    }
  }
  EXPECT_EQ(detected.pairs_erased, erased);
}

TEST(BatchDetectTest, TreeObservationsMatchReference) {
  Alphabet sigma;
  sigma.Intern("a");
  sigma.Intern("b");
  sigma.Intern("c");
  Dta query = CompileMso(*MustParseFormula("LEQ(u, v) & P_b(v)"), sigma, {"u", "v"})
                  .ValueOrDie()
                  .dta;
  Rng rng(24);
  BinaryTree t = RandomBinaryTree(400, 3, rng);
  TreeSchemeOptions opts;
  opts.key = {0xAB, 0xCD};
  opts.encoding = PairEncoding::kAntipodal;
  TreeScheme scheme = TreeScheme::Plan(t, t.labels(), 3, query, 1, opts).ValueOrDie();
  ASSERT_GT(scheme.CapacityBits(), 0u);

  WeightMap weights(1, t.size());
  for (NodeId v = 0; v < t.size(); ++v) weights.SetElem(v, 100 + v % 800);
  BitVec mark(scheme.CapacityBits());
  for (size_t i = 0; i < mark.size(); ++i) mark.Set(i, rng.Coin());
  HonestTreeServer server(t, t.labels(), 3, query, 1, scheme.Embed(weights, mark));

  // Clean suspect.
  ExpectSameObservations(ReferenceObservePairs(scheme, weights, server),
                         LibraryReadPairs(scheme, weights, server));

  // 30% node deletion plus fresh nodes planted on every witness.
  TamperedAnswerServer attacked(server);
  for (NodeId v = 0; v < t.size(); ++v) {
    if (rng.Bernoulli(0.3)) attacked.Erase(Tuple{v});
  }
  for (const TreeScheme::DetectablePair& pair : scheme.pairs()) {
    attacked.InsertAt(pair.witness, {Tuple{static_cast<ElemId>(t.size() + 7)}, 5});
    attacked.InsertAt(pair.witness, {Tuple{}, 5});
  }
  const std::vector<PairObservation> reference =
      ReferenceObservePairs(scheme, weights, attacked);
  size_t erased = 0;
  for (const PairObservation& obs : reference) erased += obs.erased;
  ASSERT_GT(erased, 0u);
  ASSERT_LT(erased, reference.size());
  ExpectSameObservations(reference, LibraryReadPairs(scheme, weights, attacked));

  // A duplicated row for pair 0's plus node on its own witness.
  TamperedAnswerServer duplicated(server);
  PlantDuplicate(duplicated, scheme.pairs()[0].witness, Tuple{scheme.pairs()[0].b_plus});
  ExpectSameObservations(ReferenceObservePairs(scheme, weights, duplicated),
                         LibraryReadPairs(scheme, weights, duplicated));
}

// --- Duplicated answer rows ------------------------------------------------

TEST(BatchDetectTest, DuplicateRowErasesLocalPair) {
  LocalWorkload wl = LocalWorkload::Build(25);
  const LocalScheme& scheme = *wl.scheme;
  const QueryIndex& index = *wl.index;
  ASSERT_GT(scheme.CapacityBits(), 1u);
  BitVec mark(scheme.CapacityBits());
  Rng rng(250);
  for (size_t i = 0; i < mark.size(); ++i) mark.Set(i, rng.Coin());
  HonestServer base(index, scheme.Embed(*wl.weights, mark));
  const std::vector<PairObservation> clean =
      LibraryReadPairs(scheme, *wl.weights, base);

  const size_t pair = scheme.CapacityBits() / 2;
  const uint32_t plus = scheme.marking().pairs()[pair].plus;
  TamperedAnswerServer duplicated(base);
  PlantDuplicate(duplicated, index.param(index.ParamsContaining(plus)[0]),
                 index.active_element(plus));
  ExpectOnlyPairErased(clean, LibraryReadPairs(scheme, *wl.weights, duplicated),
                       pair);
  EXPECT_EQ(scheme.Detect(*wl.weights, duplicated).status().code(),
            StatusCode::kDetectionFailed);
}

TEST(BatchDetectTest, DuplicateRowErasesTreePair) {
  Alphabet sigma;
  sigma.Intern("a");
  sigma.Intern("b");
  sigma.Intern("c");
  Dta query = CompileMso(*MustParseFormula("LEQ(u, v) & P_b(v)"), sigma, {"u", "v"})
                  .ValueOrDie()
                  .dta;
  Rng rng(26);
  BinaryTree t = RandomBinaryTree(400, 3, rng);
  TreeSchemeOptions opts;
  opts.key = {0x26, 0x27};
  TreeScheme scheme = TreeScheme::Plan(t, t.labels(), 3, query, 1, opts).ValueOrDie();
  ASSERT_GT(scheme.CapacityBits(), 1u);
  WeightMap weights(1, t.size());
  for (NodeId v = 0; v < t.size(); ++v) weights.SetElem(v, 100 + v % 800);
  BitVec mark(scheme.CapacityBits());
  for (size_t i = 0; i < mark.size(); ++i) mark.Set(i, rng.Coin());
  HonestTreeServer server(t, t.labels(), 3, query, 1, scheme.Embed(weights, mark));
  const std::vector<PairObservation> clean = LibraryReadPairs(scheme, weights, server);

  const size_t pair = scheme.CapacityBits() / 2;
  const TreeScheme::DetectablePair& target = scheme.pairs()[pair];
  TamperedAnswerServer duplicated(server);
  PlantDuplicate(duplicated, target.witness, Tuple{target.b_minus});
  ExpectOnlyPairErased(clean, LibraryReadPairs(scheme, weights, duplicated), pair);
  EXPECT_EQ(scheme.Detect(weights, duplicated).status().code(),
            StatusCode::kDetectionFailed);
}

TEST(BatchDetectTest, ArityTwoResultsMatchReference) {
  // Edge-weighted instance: the query returns 2-tuples, so the reader keys
  // rows through QueryIndex::FindActive instead of the unary fast path.
  Rng rng(27);
  Structure g = RandomBoundedDegreeGraph(150, 3, 400, false, rng);
  CallbackQuery query(
      "out-edges", 1, 2,
      [](const Structure& s, const Tuple& params) {
        std::vector<Tuple> out;
        for (TupleRef t : s.relation("E").tuples()) {
          if (t[0] == params[0]) out.push_back(t.ToTuple());
        }
        return out;
      },
      1);
  QueryIndex index(g, query, AllParams(g, 1));
  ASSERT_FALSE(index.has_unary_actives());
  WeightMap weights(2, g.universe_size());
  for (TupleRef t : g.relation("E").tuples()) weights.Set(t.ToTuple(), rng.Uniform(10, 99));
  LocalSchemeOptions opts;
  opts.epsilon = 0.5;
  opts.key = {27, 28};
  const LocalScheme scheme = LocalScheme::Plan(index, opts).ValueOrDie();
  ASSERT_GT(scheme.CapacityBits(), 1u);
  BitVec mark(scheme.CapacityBits());
  for (size_t i = 0; i < mark.size(); ++i) mark.Set(i, rng.Coin());
  HonestServer base(index, scheme.Embed(weights, mark));
  EXPECT_EQ(scheme.Detect(weights, base).ValueOrDie(), mark);
  const std::vector<PairObservation> clean = LibraryReadPairs(scheme, weights, base);
  ExpectSameObservations(ReferenceObservePairs(scheme, weights, base), clean);

  TamperedAnswerServer attacked(base);
  for (const Tuple& t : SubsetDeletionAttack(index, 0.3, rng)) attacked.Erase(t);
  TupleInsertionAttack(attacked, index, base.weights(), index.num_active() / 4, rng);
  ExpectSameObservations(ReferenceObservePairs(scheme, weights, attacked),
                         LibraryReadPairs(scheme, weights, attacked));

  const uint32_t plus = scheme.marking().pairs()[0].plus;
  TamperedAnswerServer duplicated(base);
  PlantDuplicate(duplicated, index.param(index.ParamsContaining(plus)[0]),
                 index.active_element(plus));
  const std::vector<PairObservation> dup = LibraryReadPairs(scheme, weights, duplicated);
  ExpectSameObservations(ReferenceObservePairs(scheme, weights, duplicated), dup);
  ExpectOnlyPairErased(clean, dup, 0);
}

// --- Parallel multi-suspect fan-out ----------------------------------------

TEST(ParallelDetectTest, DetectManyIdenticalAcrossThreads) {
  ThreadGuard guard;
  LocalWorkload wl = LocalWorkload::Build(31);
  AdversarialScheme adv(*wl.scheme, 5);
  ASSERT_GT(adv.CapacityBits(), 0u);

  // A mixed lineup: distinct messages per suspect, half of them structurally
  // attacked, to make sure per-suspect state never bleeds across the pool.
  constexpr size_t kSuspects = 6;
  std::vector<std::unique_ptr<HonestServer>> bases;
  std::vector<std::unique_ptr<TamperedAnswerServer>> tampered;
  std::vector<const AnswerServer*> suspects;
  for (size_t s = 0; s < kSuspects; ++s) {
    Rng rng(310 + s);
    BitVec msg(adv.CapacityBits());
    for (size_t i = 0; i < msg.size(); ++i) msg.Set(i, rng.Coin());
    bases.push_back(
        std::make_unique<HonestServer>(*wl.index, adv.Embed(*wl.weights, msg)));
    if (s % 2 == 0) {
      suspects.push_back(bases.back().get());
      continue;
    }
    tampered.push_back(std::make_unique<TamperedAnswerServer>(*bases.back()));
    for (const Tuple& t : SubsetDeletionAttack(*wl.index, 0.25, rng)) {
      tampered.back()->Erase(t);
    }
    suspects.push_back(tampered.back().get());
  }

  SetParallelThreads(1);
  std::vector<AdversarialDetection> reference;
  for (const AnswerServer* s : suspects) {
    reference.push_back(adv.Detect(*wl.weights, *s).ValueOrDie());
  }

  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SetParallelThreads(threads);
    std::vector<AdversarialDetection> out = adv.DetectMany(*wl.weights, suspects);
    ASSERT_EQ(out.size(), reference.size());
    for (size_t s = 0; s < out.size(); ++s) {
      ExpectSameDetections(reference[s], out[s]);
    }
  }
}

}  // namespace
}  // namespace qpwm
