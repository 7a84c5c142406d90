#include <gtest/gtest.h>

#include "qpwm/core/answers.h"
#include "qpwm/core/attack.h"
#include "qpwm/core/distortion.h"
#include "qpwm/core/pairs.h"
#include "qpwm/logic/query.h"
#include "qpwm/structure/generators.h"
#include "qpwm/util/random.h"

namespace qpwm {
namespace {

// Fixture over the paper's Figure 1 instance with psi(u, v) = R(u, v).
class Figure1Test : public ::testing::Test {
 protected:
  Figure1Test()
      : g_(Figure1Instance()),
        query_(AtomQuery::Adjacency("R")),
        index_(g_, *query_, AllParams(g_, 1)),
        weights_(1, g_.universe_size()) {
    for (ElemId e = 0; e < 6; ++e) weights_.SetElem(e, 100 + e);
  }

  Structure g_;
  std::unique_ptr<AtomQuery> query_;
  QueryIndex index_;
  WeightMap weights_;
};

TEST_F(Figure1Test, ActiveElements) {
  // W = union W_a = {d, e, a, b}; c and f are inactive.
  EXPECT_EQ(index_.num_active(), 4u);
  EXPECT_TRUE(index_.FindActive(Tuple{3}).ok());   // d
  EXPECT_TRUE(index_.FindActive(Tuple{4}).ok());   // e
  EXPECT_TRUE(index_.FindActive(Tuple{0}).ok());   // a
  EXPECT_TRUE(index_.FindActive(Tuple{1}).ok());   // b
  EXPECT_FALSE(index_.FindActive(Tuple{2}).ok());  // c
  EXPECT_FALSE(index_.FindActive(Tuple{5}).ok());  // f
}

TEST_F(Figure1Test, ResultSets) {
  size_t a_param = index_.FindParam(Tuple{0}).ValueOrDie();
  EXPECT_EQ(index_.ResultFor(a_param).size(), 2u);  // W_a = {d, e}
  size_t c_param = index_.FindParam(Tuple{2}).ValueOrDie();
  EXPECT_EQ(index_.ResultFor(c_param).size(), 1u);  // W_c = {d}
}

TEST_F(Figure1Test, InverseIndex) {
  size_t d_active = index_.FindActive(Tuple{3}).ValueOrDie();
  // d appears in W_a, W_b, W_c: three parameters.
  EXPECT_EQ(index_.ParamsContaining(d_active).size(), 3u);
}

TEST_F(Figure1Test, SumWeightsComputesF) {
  size_t a_param = index_.FindParam(Tuple{0}).ValueOrDie();
  // f(a) = W(d) + W(e) = 103 + 104.
  EXPECT_EQ(index_.SumWeights(a_param, weights_), 207);
}

TEST_F(Figure1Test, AnswersCarryWeights) {
  HonestServer server(index_, weights_);
  AnswerSet answers = server.Answer(Tuple{2});
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].element, Tuple{3});
  EXPECT_EQ(answers[0].weight, 103);
}

TEST_F(Figure1Test, HonestServerServesWeights) {
  HonestServer server(index_, weights_);
  AnswerSet answers = server.Answer(Tuple{0});
  EXPECT_EQ(answers.size(), 2u);
}

TEST_F(Figure1Test, NaivePairLeaksOnCAndF) {
  // Figure 3: the (d: +1, e: -1) marking is neutral on a, b but leaks on
  // c (+1) and f (-1).
  size_t d_active = index_.FindActive(Tuple{3}).ValueOrDie();
  size_t e_active = index_.FindActive(Tuple{4}).ValueOrDie();
  PairMarking marking(index_, {{static_cast<uint32_t>(d_active),
                                static_cast<uint32_t>(e_active)}});

  WeightMap marked = weights_;
  BitVec one(1);
  one.Set(0, true);
  marking.Apply(one, marked);

  auto drift = PerParamDistortion(index_, weights_, marked);
  EXPECT_EQ(drift[0], 0);  // a
  EXPECT_EQ(drift[1], 0);  // b
  EXPECT_EQ(drift[2], 1);  // c: +1 leak
  EXPECT_EQ(drift[5], 1);  // f: -1 leak
  EXPECT_EQ(GlobalDistortion(index_, weights_, marked), 1);
  EXPECT_TRUE(SatisfiesLocalDistortion(weights_, marked, 1));
}

TEST_F(Figure1Test, CostPerParamBoundsEveryMark) {
  size_t d = index_.FindActive(Tuple{3}).ValueOrDie();
  size_t e = index_.FindActive(Tuple{4}).ValueOrDie();
  size_t a = index_.FindActive(Tuple{0}).ValueOrDie();
  size_t b = index_.FindActive(Tuple{1}).ValueOrDie();
  PairMarking marking(index_,
                      {{static_cast<uint32_t>(d), static_cast<uint32_t>(e)},
                       {static_cast<uint32_t>(a), static_cast<uint32_t>(b)}});
  auto cost = marking.CostPerParam();
  // Exhaustively check all 4 marks against the cost bound.
  for (uint64_t m = 0; m < 4; ++m) {
    WeightMap marked = weights_;
    marking.Apply(BitVec::FromUint64(m, 2), marked);
    auto drift = PerParamDistortion(index_, weights_, marked);
    for (size_t p = 0; p < drift.size(); ++p) {
      EXPECT_LE(drift[p], static_cast<Weight>(cost[p])) << "mark " << m;
    }
  }
  EXPECT_EQ(marking.MaxCost(), 1u);
}

TEST_F(Figure1Test, AntipodalEncodingAlsoBounded) {
  size_t d = index_.FindActive(Tuple{3}).ValueOrDie();
  size_t e = index_.FindActive(Tuple{4}).ValueOrDie();
  PairMarking marking(index_, {{static_cast<uint32_t>(d), static_cast<uint32_t>(e)}});
  WeightMap zero_mark = weights_;
  marking.Apply(BitVec(1), zero_mark, PairEncoding::kAntipodal);
  // Bit 0 antipodal writes (-1, +1): still 1-local, still cost-bounded.
  EXPECT_TRUE(SatisfiesLocalDistortion(weights_, zero_mark, 1));
  EXPECT_LE(GlobalDistortion(index_, weights_, zero_mark), 1);
}

TEST_F(Figure1Test, SubsetSelectsPairs) {
  size_t d = index_.FindActive(Tuple{3}).ValueOrDie();
  size_t e = index_.FindActive(Tuple{4}).ValueOrDie();
  size_t a = index_.FindActive(Tuple{0}).ValueOrDie();
  size_t b = index_.FindActive(Tuple{1}).ValueOrDie();
  PairMarking all(index_, {{static_cast<uint32_t>(d), static_cast<uint32_t>(e)},
                           {static_cast<uint32_t>(a), static_cast<uint32_t>(b)}});
  PairMarking sub = all.Subset({1});
  EXPECT_EQ(sub.size(), 1u);
  EXPECT_EQ(sub.pairs()[0].plus, static_cast<uint32_t>(a));
}

// --- Aggregates --------------------------------------------------------------

TEST_F(Figure1Test, AggregateVariants) {
  size_t a_param = index_.FindParam(Tuple{0}).ValueOrDie();
  EXPECT_EQ(AggregateWeight(index_, a_param, weights_, Aggregate::kSum), 207);
  EXPECT_EQ(AggregateWeight(index_, a_param, weights_, Aggregate::kMean), 103);
  EXPECT_EQ(AggregateWeight(index_, a_param, weights_, Aggregate::kMin), 103);
  EXPECT_EQ(AggregateWeight(index_, a_param, weights_, Aggregate::kMax), 104);
}

TEST_F(Figure1Test, EmptyResultAggregatesToZero) {
  // d's result set is {a}; use an isolated new structure param with empty
  // results: parameter c has W_c = {d}, but parameter d -> {a}. Element 2
  // (c) has nonempty; check an actually-empty one: none here, so craft one.
  Structure iso(GraphSignature(), 2);
  iso.Seal();
  auto query = AtomQuery::Adjacency("E");
  QueryIndex index(iso, *query, AllParams(iso, 1));
  WeightMap w(1, 2);
  EXPECT_EQ(AggregateWeight(index, 0, w, Aggregate::kSum), 0);
  EXPECT_EQ(AggregateWeight(index, 0, w, Aggregate::kMin), 0);
}

// --- Honest servers under hostile parameters --------------------------------

TEST(HonestServerTest, HostileParamsGetEmptyAnswer) {
  // A parameter of the wrong arity, or naming an element outside the
  // universe, cannot be evaluated: both relational servers answer it with no
  // rows, through Answer and through AnswerAllFlat, instead of aborting.
  Rng rng(4);
  const Structure g = RandomBoundedDegreeGraph(40, 3, 80, false, rng);
  DistanceQuery query(1);
  // Half the domain, so hostile parameters miss the index and reach direct
  // evaluation.
  std::vector<Tuple> domain = AllParams(g, 1);
  domain.resize(domain.size() / 2);
  const QueryIndex index(g, query, domain);
  const WeightMap weights = RandomWeights(g, 1, 9, rng);
  const HonestServer honest(index, weights);
  const ServingSnapshot snapshot(index, weights, 3);
  const Tuple valid{static_cast<ElemId>(g.universe_size() - 1)};
  const std::vector<Tuple> hostile = {
      Tuple{}, Tuple{1, 2}, Tuple{static_cast<ElemId>(g.universe_size())},
      Tuple{0xFFFFFFF0u}};
  for (const HonestServer* server : {&honest, static_cast<const HonestServer*>(&snapshot)}) {
    ASSERT_FALSE(server->Answer(valid).empty());
    for (const Tuple& p : hostile) {
      EXPECT_TRUE(server->Answer(p).empty()) << p.size();
    }
    std::vector<Tuple> batch = hostile;
    batch.push_back(valid);
    FlatAnswerBatch flat;
    server->AnswerAllFlat(batch, flat);
    ASSERT_EQ(flat.num_params(), batch.size());
    for (size_t i = 0; i < hostile.size(); ++i) {
      EXPECT_EQ(flat.param_offsets[i + 1], flat.param_offsets[i]) << i;
    }
    EXPECT_EQ(flat.num_rows(), server->Answer(valid).size());
  }
}

// --- Attacks -----------------------------------------------------------------

TEST(AttackTest, UniformNoiseIsLocal) {
  Rng rng(3);
  WeightMap w(1, 50);
  for (ElemId e = 0; e < 50; ++e) w.SetElem(e, 100);
  WeightMap attacked = UniformNoiseAttack(w, 2, rng);
  EXPECT_LE(w.LocalDistortion(attacked), 2);
}

TEST(AttackTest, JitterFlipsSomeWeights) {
  Rng rng(4);
  WeightMap w(1, 200);
  WeightMap attacked = JitterAttack(w, 0.5, rng);
  EXPECT_LE(w.LocalDistortion(attacked), 1);
  size_t changed = 0;
  for (ElemId e = 0; e < 200; ++e) changed += attacked.GetElem(e) != 0;
  EXPECT_GT(changed, 50u);
  EXPECT_LT(changed, 150u);
}

TEST(AttackTest, RoundingSnapsToGranularity) {
  WeightMap w(1, 5);
  w.SetElem(0, 101);
  w.SetElem(1, 104);
  w.SetElem(2, -3);
  w.SetElem(3, 0);
  w.SetElem(4, 7);
  WeightMap attacked = RoundingAttack(w, 5);
  EXPECT_EQ(attacked.GetElem(0), 100);
  EXPECT_EQ(attacked.GetElem(1), 105);
  EXPECT_EQ(attacked.GetElem(2), -5);
  EXPECT_EQ(attacked.GetElem(3), 0);
  EXPECT_EQ(attacked.GetElem(4), 5);
}

TEST(AttackTest, GuessingAttackTouchesActiveElements) {
  Structure g = Figure1Instance();
  auto query = AtomQuery::Adjacency("R");
  QueryIndex index(g, *query, AllParams(g, 1));
  WeightMap w(1, 6);
  Rng rng(5);
  WeightMap attacked = GuessingPairAttack(w, index, 10, rng);
  // Inactive elements (c = 2, f = 5) are never touched.
  EXPECT_EQ(attacked.GetElem(2), 0);
  EXPECT_EQ(attacked.GetElem(5), 0);
}

}  // namespace
}  // namespace qpwm
