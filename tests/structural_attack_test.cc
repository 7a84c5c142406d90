#include <gtest/gtest.h>

#include <cmath>

#include "qpwm/core/adversarial.h"
#include "qpwm/core/attack.h"
#include "qpwm/core/local_scheme.h"
#include "qpwm/core/tree_scheme.h"
#include "qpwm/logic/parser.h"
#include "qpwm/logic/query.h"
#include "qpwm/relational/table.h"
#include "qpwm/structure/generators.h"
#include "qpwm/tree/mso.h"
#include "qpwm/util/random.h"
#include "qpwm/xml/attack.h"
#include "qpwm/xml/parser.h"
#include "qpwm/xml/xpath.h"

namespace qpwm {
namespace {

struct Fixture {
  Structure g;
  std::unique_ptr<AtomQuery> query;
  std::unique_ptr<QueryIndex> index;
  WeightMap weights;
  std::unique_ptr<LocalScheme> scheme;

  explicit Fixture(size_t n, uint64_t seed) : weights(1, 0) {
    Rng rng(seed);
    g = RandomBoundedDegreeGraph(n, 3, 3 * n, false, rng);
    query = AtomQuery::Adjacency("E");
    index = std::make_unique<QueryIndex>(g, *query, AllParams(g, 1));
    weights = RandomWeights(g, 1000, 9999, rng);
    LocalSchemeOptions opts;
    opts.epsilon = 0.25;
    opts.key = {seed, seed + 1};
    opts.encoding = PairEncoding::kAntipodal;
    scheme = std::make_unique<LocalScheme>(
        LocalScheme::Plan(*index, opts).ValueOrDie());
  }
};

// Embeds a random message and returns (message, detection) after erasing the
// elements SubsetDeletionAttack selects at `drop_frac`.
std::pair<BitVec, AdversarialDetection> RunDeletion(Fixture& s,
                                                    const AdversarialScheme& adv,
                                                    double drop_frac,
                                                    uint64_t seed) {
  Rng rng(seed);
  BitVec msg(adv.CapacityBits());
  for (size_t i = 0; i < msg.size(); ++i) msg.Set(i, rng.Coin());
  WeightMap marked = adv.Embed(s.weights, msg);
  HonestServer base(*s.index, marked);
  TamperedAnswerServer server(base);
  for (const Tuple& t : SubsetDeletionAttack(*s.index, drop_frac, rng)) {
    server.Erase(t);
  }
  return {msg, adv.Detect(s.weights, server).ValueOrDie()};
}

TEST(StructuralAttackTest, TamperedServerErasesAndInserts) {
  Fixture s(100, 1);
  HonestServer base(*s.index, s.weights);
  TamperedAnswerServer server(base);

  // Before tampering: identical answers.
  const Tuple& p = s.index->param(0);
  EXPECT_EQ(server.Answer(p).size(), base.Answer(p).size());

  // Erasing an element removes its rows everywhere.
  ASSERT_GT(s.index->num_active(), 0u);
  Tuple victim = s.index->active_element(0);
  server.Erase(victim);
  EXPECT_EQ(server.num_erased(), 1u);
  for (size_t a = 0; a < s.index->num_params(); ++a) {
    for (const AnswerRow& row : server.Answer(s.index->param(a))) {
      EXPECT_NE(row.element, victim);
    }
  }

  // Insertions append spurious rows at one parameter / everywhere.
  server.InsertAt(p, {Tuple{static_cast<ElemId>(10000)}, 42});
  EXPECT_GE(server.Answer(p).size(), 1u);
  server.InsertEverywhere({Tuple{static_cast<ElemId>(10001)}, 7});
  for (size_t a = 0; a < s.index->num_params(); ++a) {
    const AnswerSet rows = server.Answer(s.index->param(a));
    bool found = false;
    for (const AnswerRow& row : rows) {
      found |= row.element == Tuple{static_cast<ElemId>(10001)};
    }
    EXPECT_TRUE(found);
  }
}

// --- Flat tampered serving ----------------------------------------------------

/// Requires AnswerAllFlat to return exactly AnswerBatch's rows, parameter by
/// parameter and row by row, into a batch that held stale rows before.
void ExpectFlatMatchesBatch(const TamperedAnswerServer& server,
                            const std::vector<Tuple>& params) {
  const std::vector<AnswerSet> want = server.AnswerBatch(params);
  FlatAnswerBatch flat;
  flat.AppendRow(Tuple{7, 7, 7}, 99);
  flat.FinishParam();
  server.AnswerAllFlat(params, flat);
  ASSERT_EQ(flat.num_params(), params.size());
  ASSERT_EQ(flat.elem_offsets.size(), flat.num_rows() + 1);
  ASSERT_EQ(flat.elem_offsets.back(), flat.elems.size());
  for (size_t p = 0; p < params.size(); ++p) {
    const size_t first = flat.param_offsets[p];
    ASSERT_EQ(flat.param_offsets[p + 1] - first, want[p].size()) << "param " << p;
    for (size_t k = 0; k < want[p].size(); ++k) {
      const size_t r = first + k;
      const Tuple got(flat.elems.begin() + flat.elem_offsets[r],
                      flat.elems.begin() + flat.elem_offsets[r + 1]);
      EXPECT_EQ(got, want[p][k].element) << "param " << p << " row " << k;
      EXPECT_EQ(flat.weights[r], want[p][k].weight) << "param " << p << " row " << k;
    }
  }
}

/// A non-batch server whose rows are pairs and singletons: parameter {a}
/// answers (a, a+1), (a+1, a+2) and (a).
class PairRowServer : public AnswerServer {
 public:
  AnswerSet Answer(const Tuple& params) const override {
    const ElemId a = params[0];
    return {{Tuple{a, a + 1}, 10 + a}, {Tuple{a + 1, a + 2}, 20 + a}, {Tuple{a}, 30 + a}};
  }
};

TEST(StructuralAttackTest, FlatTamperedRowsMatchBatchOverHonestServer) {
  Rng rng(81);
  Structure g = RandomBoundedDegreeGraph(200, 3, 600, false, rng);
  auto query = AtomQuery::Adjacency("E");
  // A partial domain: the held-out parameters are served by direct
  // evaluation, outside the index.
  std::vector<Tuple> domain = AllParams(g, 1);
  const std::vector<Tuple> params = domain;
  domain.resize(domain.size() - 20);
  QueryIndex index(g, *query, domain);
  HonestServer base(index, RandomWeights(g, 1000, 9999, rng));
  TamperedAnswerServer server(base);

  ExpectFlatMatchesBatch(server, params);
  for (const Tuple& t : SubsetDeletionAttack(index, 0.3, rng)) server.Erase(t);
  server.Erase(params.back());  // an element only out-of-domain answers hold
  ExpectFlatMatchesBatch(server, params);
  TupleInsertionAttack(server, index, base.weights(), 40, rng);
  server.InsertAt(params.back(), {Tuple{5000}, 1});
  server.InsertAt(params.back(), {Tuple{5001, 5002}, 2});
  ExpectFlatMatchesBatch(server, params);
  server.InsertEverywhere({Tuple{6000}, 3});
  server.InsertEverywhere({Tuple{6001, 6002}, 4});
  ExpectFlatMatchesBatch(server, params);
  // Erasure reaches planted rows too, and repeated parameters stay aligned.
  server.Erase(Tuple{6000});
  ExpectFlatMatchesBatch(server, {params[3], params.back(), params[3]});
  ExpectFlatMatchesBatch(server, {});
}

TEST(StructuralAttackTest, FlatTamperedRowsMatchBatchOverNonBatchServers) {
  // Pair rows: arity-2 erasures next to unary ones.
  PairRowServer pairs;
  TamperedAnswerServer tampered_pairs(pairs);
  std::vector<Tuple> params;
  for (ElemId a = 0; a < 30; ++a) params.push_back(Tuple{a});
  tampered_pairs.Erase(Tuple{4, 5});
  tampered_pairs.Erase(Tuple{9});
  tampered_pairs.Erase(Tuple{12, 13, 14});
  ExpectFlatMatchesBatch(tampered_pairs, params);
  tampered_pairs.InsertAt(Tuple{2}, {Tuple{100, 101}, 5});
  tampered_pairs.InsertEverywhere({Tuple{102}, 6});
  ExpectFlatMatchesBatch(tampered_pairs, params);

  // A tree server, whose flat batches come from the automaton run.
  Alphabet sigma;
  sigma.Intern("a");
  sigma.Intern("b");
  sigma.Intern("c");
  Dta query = CompileMso(*MustParseFormula("LEQ(u, v) & P_b(v)"), sigma, {"u", "v"})
                  .ValueOrDie()
                  .dta;
  Rng rng(82);
  BinaryTree t = RandomBinaryTree(300, 3, rng);
  WeightMap weights(1, t.size());
  for (NodeId v = 0; v < t.size(); ++v) weights.SetElem(v, rng.Uniform(1, 1000));
  HonestTreeServer tree(t, t.labels(), 3, query, 1, weights);
  TamperedAnswerServer tampered_tree(tree);
  std::vector<Tuple> nodes;
  for (NodeId v = 0; v < t.size(); v += 7) nodes.push_back(Tuple{v});
  ExpectFlatMatchesBatch(tampered_tree, nodes);
  for (NodeId v = 0; v < t.size(); v += 5) tampered_tree.Erase(Tuple{v});
  ExpectFlatMatchesBatch(tampered_tree, nodes);
  tampered_tree.InsertAt(nodes[1], {Tuple{9000}, 7});
  tampered_tree.InsertEverywhere({Tuple{9001}, 8});
  ExpectFlatMatchesBatch(tampered_tree, nodes);
}

TEST(StructuralAttackTest, FullMarkSurvivesThirtyPercentPairDeletion) {
  // The acceptance workload: redundancy 5, 30% of pairs deleted (element
  // rate 1 - sqrt(0.7)); each bit dies only with probability 0.3^5.
  Fixture s(600, 17);
  AdversarialScheme adv(*s.scheme, 5);
  ASSERT_GT(adv.CapacityBits(), 0u);
  auto [msg, d] = RunDeletion(s, adv, 1.0 - std::sqrt(0.7), 170);
  EXPECT_TRUE(d.complete());
  EXPECT_EQ(d.mark, msg);
  EXPECT_GT(d.pairs_erased, 0u);  // the attack really landed
  EXPECT_EQ(d.min_margin, 1.0);   // erasures abstain, survivors are unanimous
}

TEST(StructuralAttackTest, DeletionDegradesToErasuresNeverWrongBits) {
  // Up to the majority-breaking point and beyond: bits drop out as erasures,
  // recovered bits never contradict the embedded message.
  Fixture s(400, 23);
  AdversarialScheme adv(*s.scheme, 5);
  ASSERT_GT(adv.CapacityBits(), 0u);
  for (double frac : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    auto [msg, d] = RunDeletion(s, adv, frac, 230 + static_cast<uint64_t>(frac * 10));
    EXPECT_EQ(d.bits_recovered + d.bits_erased, d.mark.size());
    for (size_t i = 0; i < d.mark.size(); ++i) {
      if (!d.bit_erased[i]) {
        EXPECT_EQ(d.mark.Get(i), msg.Get(i)) << "bit " << i;
      }
    }
  }
}

TEST(StructuralAttackTest, ErasureCountsGrowMonotonically) {
  // Confidence decays monotonically in the deletion rate: nested deletions
  // (same seed, growing fraction) only ever erase more pairs and more bits.
  Fixture s(400, 29);
  AdversarialScheme adv(*s.scheme, 5);
  ASSERT_GT(adv.CapacityBits(), 0u);
  size_t prev_pairs = 0;
  size_t prev_bits = 0;
  size_t prev_recovered = adv.CapacityBits();
  for (double frac : {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    auto [msg, d] = RunDeletion(s, adv, frac, 290);
    (void)msg;
    EXPECT_GE(d.pairs_erased, prev_pairs);
    EXPECT_GE(d.bits_erased, prev_bits);
    EXPECT_LE(d.bits_recovered, prev_recovered);
    prev_pairs = d.pairs_erased;
    prev_bits = d.bits_erased;
    prev_recovered = d.bits_recovered;
  }
  // Total deletion: everything is erased, nothing is fabricated.
  auto [msg, d] = RunDeletion(s, adv, 1.0, 290);
  (void)msg;
  EXPECT_EQ(d.bits_recovered, 0u);
  EXPECT_EQ(d.bits_erased, d.mark.size());
  EXPECT_EQ(d.min_margin, 0.0);
  for (size_t i = 0; i < d.mark.size(); ++i) {
    EXPECT_TRUE(d.bit_erased[i]);
    EXPECT_EQ(d.margins[i], 0.0);
  }
}

TEST(StructuralAttackTest, InsertionAloneIsHarmless) {
  // Spurious rows belong to no registered pair: every vote survives.
  Fixture s(300, 31);
  AdversarialScheme adv(*s.scheme, 3);
  ASSERT_GT(adv.CapacityBits(), 0u);
  Rng rng(31);
  BitVec msg(adv.CapacityBits());
  for (size_t i = 0; i < msg.size(); ++i) msg.Set(i, rng.Coin());
  WeightMap marked = adv.Embed(s.weights, msg);
  HonestServer base(*s.index, marked);
  TamperedAnswerServer server(base);
  TupleInsertionAttack(server, *s.index, marked, 500, rng);
  AdversarialDetection d = adv.Detect(s.weights, server).ValueOrDie();
  EXPECT_TRUE(d.complete());
  EXPECT_EQ(d.mark, msg);
  EXPECT_EQ(d.pairs_erased, 0u);
  EXPECT_EQ(d.min_margin, 1.0);
}

TEST(StructuralAttackTest, StrictDetectionStillFailsOnErasure) {
  // The legacy all-or-nothing path keeps its contract: any structural
  // tampering is a detection failure, not a silent wrong answer.
  Fixture s(200, 37);
  Rng rng(37);
  BitVec msg(s.scheme->CapacityBits());
  WeightMap marked = s.scheme->Embed(s.weights, msg);
  HonestServer base(*s.index, marked);
  TamperedAnswerServer server(base);
  server.Erase(s.index->active_element(0));
  auto detected = s.scheme->Detect(s.weights, server);
  ASSERT_FALSE(detected.ok());
  EXPECT_EQ(detected.status().code(), StatusCode::kDetectionFailed);
}

TEST(StructuralAttackTest, CollusionDomainMismatchIsAnError) {
  Fixture s(100, 41);
  WeightMap other(1, s.g.universe_size() + 5);
  const AveragingCollusion averaging;
  Rng rng(1);  // averaging is rng-free
  auto averaged = averaging.Forge({&s.weights, &other}, rng);
  ASSERT_FALSE(averaged.ok());
  EXPECT_EQ(averaged.status().code(), StatusCode::kInvalidArgument);
  auto empty = averaging.Forge({}, rng);
  EXPECT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);

  // The mismatch is rejected wherever it sits in the copy list, and a
  // single-copy "collusion" of the right domain still succeeds (it is the
  // identity average).
  auto late_mismatch = averaging.Forge({&s.weights, &s.weights, &other}, rng);
  ASSERT_FALSE(late_mismatch.ok());
  EXPECT_EQ(late_mismatch.status().code(), StatusCode::kInvalidArgument);
  auto single = averaging.Forge({&s.weights}, rng);
  ASSERT_TRUE(single.ok());
  bool same = true;
  s.weights.ForEach([&](const Tuple& t, Weight w) {
    same &= single.value().Get(t) == w;
  });
  EXPECT_TRUE(same);
}

TEST(StructuralAttackTest, SubsetDeletionSamplesRequestedFraction) {
  Fixture s(500, 43);
  Rng rng(43);
  EXPECT_TRUE(SubsetDeletionAttack(*s.index, 0.0, rng).empty());
  EXPECT_EQ(SubsetDeletionAttack(*s.index, 1.0, rng).size(),
            s.index->num_active());
  const size_t half = SubsetDeletionAttack(*s.index, 0.5, rng).size();
  EXPECT_GT(half, s.index->num_active() / 4);
  EXPECT_LT(half, s.index->num_active() * 3 / 4);
}

// --- Relational end to end ---------------------------------------------------

TEST(StructuralAttackTest, RelationalRowSubsetAlignsAndDetects) {
  Rng rng(47);
  Database db = RandomTravelDatabase(80, 100, 3, rng);
  RelationalInstance inst = ToWeightedStructure(db).ValueOrDie();
  AtomQuery route("Route", {{true, 0}, {false, 0}}, 1, 1);
  QueryIndex index(inst.structure, route, AllParams(inst.structure, 1));
  LocalSchemeOptions opts;
  opts.epsilon = 0.25;
  opts.key = {47, 48};
  opts.encoding = PairEncoding::kAntipodal;
  auto scheme = LocalScheme::Plan(index, opts).ValueOrDie();
  AdversarialScheme adv(scheme, 3);
  ASSERT_GT(adv.CapacityBits(), 0u);

  BitVec msg(adv.CapacityBits());
  for (size_t i = 0; i < msg.size(); ++i) msg.Set(i, rng.Coin());
  WeightMap marked = adv.Embed(inst.weights, msg);
  Database published = ApplyWeightsToDatabase(db, inst, marked).ValueOrDie();

  Database leaked;
  for (const Table& t : published.tables()) {
    leaked.AddTable(SubsetRowsAttack(t, 0.8, rng));
  }
  RelationalInstance suspect = ToWeightedStructure(leaked).ValueOrDie();
  AlignedSuspect aligned = AlignSuspectInstance(inst, suspect);
  EXPECT_GT(aligned.missing, 0u);
  EXPECT_GT(aligned.matched, 0u);

  HonestServer base(index, aligned.weights);
  TamperedAnswerServer server(base);
  for (ElemId e = 0; e < aligned.present.size(); ++e) {
    if (!aligned.present[e]) server.Erase(Tuple{e});
  }
  AdversarialDetection d = adv.Detect(inst.weights, server).ValueOrDie();
  for (size_t i = 0; i < d.mark.size(); ++i) {
    if (!d.bit_erased[i]) {
      EXPECT_EQ(d.mark.Get(i), msg.Get(i)) << "bit " << i;
    }
  }
}

TEST(StructuralAttackTest, AlignmentTreatsLostWeightRowAsErased) {
  // An element can survive in a key column while the row carrying its weight
  // is deleted: it must be served as erased, never as weight 0.
  Database db = TravelAgencyDatabase();
  RelationalInstance inst = ToWeightedStructure(db).ValueOrDie();

  Database leaked = db;
  Table* timetable = leaked.FindMutable("Timetable").ValueOrDie();
  // Rebuild the timetable without the F21 row; F21 stays in Route.
  Table trimmed(timetable->name(), timetable->columns());
  for (size_t r = 0; r < timetable->num_rows(); ++r) {
    if (timetable->KeyAt(r, 0) != "F21") {
      ASSERT_TRUE(trimmed.AddRow(timetable->row(r)).ok());
    }
  }
  *timetable = trimmed;

  RelationalInstance suspect = ToWeightedStructure(leaked).ValueOrDie();
  ElemId f21 = inst.structure.FindElement("F21").ValueOrDie();
  ASSERT_TRUE(suspect.structure.FindElement("F21").ok());  // still a key
  AlignedSuspect aligned = AlignSuspectInstance(inst, suspect);
  EXPECT_FALSE(aligned.present[f21]);
}

// --- XML end to end ----------------------------------------------------------

TEST(StructuralAttackTest, XmlSubtreeDeletionShrinksDocument) {
  Rng rng(53);
  XmlDocument doc = RandomSchoolDocument(50, rng, 0, 20, 3);
  XmlDocument attacked = SubtreeDeletionAttack(doc, 0.3, rng);
  EXPECT_LT(attacked.size(), doc.size());
  EXPECT_GT(attacked.size(), 0u);
  // Round-trips through the serializer (structurally valid).
  EXPECT_TRUE(ParseXml(SerializeXml(attacked)).ok());

  XmlDocument grown = ElementInsertionAttack(doc, 0.2, rng);
  EXPECT_GT(grown.size(), doc.size());
  EXPECT_TRUE(ParseXml(SerializeXml(grown)).ok());
}

TEST(StructuralAttackTest, XmlAlignmentRecoversAfterSubtreeDeletion) {
  Rng rng(59);
  XmlDocument doc = RandomSchoolDocument(60, rng, 0, 20, 2);
  EncodedXml enc = EncodeXml(doc, {"exam"}).ValueOrDie();
  XPathQuery query =
      XPathQuery::Parse("school/student[firstname=$1]/exam").ValueOrDie();
  TrackedDta dta = query.Compile(enc).ValueOrDie();
  const auto sigma = static_cast<uint32_t>(enc.sigma.size());
  TreeSchemeOptions opts;
  opts.key = {59, 60};
  opts.encoding = PairEncoding::kAntipodal;
  TreeScheme scheme =
      TreeScheme::Plan(enc.tree, enc.tree.labels(), sigma, dta.dta, 1, opts)
          .ValueOrDie();
  AdversarialScheme adv(scheme, 3);
  ASSERT_GT(adv.CapacityBits(), 0u);

  BitVec msg(adv.CapacityBits());
  for (size_t i = 0; i < msg.size(); ++i) msg.Set(i, rng.Coin());
  WeightMap marked = adv.Embed(enc.weights, msg);
  XmlDocument published = ApplyWeights(doc, enc, marked);

  // Clean suspect: alignment is exact, detection is full.
  {
    SuspectAlignment aligned =
        AlignSuspectWeights(doc, enc, published, {"exam"}).ValueOrDie();
    EXPECT_EQ(aligned.missing, 0u);
    EXPECT_EQ(aligned.extra, 0u);
    HonestTreeServer server(enc.tree, enc.tree.labels(), sigma, dta.dta, 1,
                            aligned.weights);
    AdversarialDetection d = adv.Detect(enc.weights, server).ValueOrDie();
    EXPECT_TRUE(d.complete());
    EXPECT_EQ(d.mark, msg);
  }

  // Tampered suspect: records vanish, recovered bits stay correct.
  {
    XmlDocument leaked = SubtreeDeletionAttack(published, 0.15, rng);
    SuspectAlignment aligned =
        AlignSuspectWeights(doc, enc, leaked, {"exam"}).ValueOrDie();
    EXPECT_GT(aligned.missing, 0u);
    HonestTreeServer server(enc.tree, enc.tree.labels(), sigma, dta.dta, 1,
                            aligned.weights);
    TamperedAnswerServer tampered(server);
    for (NodeId v = 0; v < aligned.present.size(); ++v) {
      if (!aligned.present[v]) tampered.Erase(Tuple{v});
    }
    AdversarialDetection d = adv.Detect(enc.weights, tampered).ValueOrDie();
    EXPECT_GT(d.pairs_erased, 0u);
    for (size_t i = 0; i < d.mark.size(); ++i) {
      if (!d.bit_erased[i]) {
        EXPECT_EQ(d.mark.Get(i), msg.Get(i)) << "bit " << i;
      }
    }
  }
}

TEST(StructuralAttackTest, XmlInsertionDegradesToExtrasAndErasures) {
  Rng rng(61);
  XmlDocument doc = RandomSchoolDocument(40, rng, 0, 20, 3);
  EncodedXml enc = EncodeXml(doc, {"exam"}).ValueOrDie();
  XmlDocument grown = ElementInsertionAttack(doc, 0.3, rng);
  SuspectAlignment aligned =
      AlignSuspectWeights(doc, enc, grown, {"exam"}).ValueOrDie();
  // Cloned records show up as extras. Clones that duplicate a *key* field
  // change their record's signature, so such originals degrade to erasures —
  // never to a silently wrong match.
  EXPECT_GT(aligned.extra, 0u);
  EXPECT_GT(aligned.matched, aligned.missing);
  size_t weight_records = 0;
  for (size_t v = 0; v < enc.is_weight_node.size(); ++v) {
    weight_records += enc.is_weight_node[v];
  }
  EXPECT_EQ(aligned.matched + aligned.missing, weight_records);
}

}  // namespace
}  // namespace qpwm
