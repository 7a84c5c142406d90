#include <gtest/gtest.h>

#include "qpwm/core/adversarial.h"
#include "qpwm/core/attack.h"
#include "qpwm/core/tree_scheme.h"
#include "qpwm/logic/parser.h"
#include "qpwm/tree/mso.h"
#include "qpwm/core/distortion.h"
#include "qpwm/logic/query.h"
#include "qpwm/structure/generators.h"
#include "qpwm/util/random.h"

namespace qpwm {
namespace {

struct Fixture {
  Structure g;
  std::unique_ptr<AtomQuery> query;
  std::unique_ptr<QueryIndex> index;
  WeightMap weights;
  std::unique_ptr<LocalScheme> scheme;

  Fixture(size_t n, uint64_t seed, double epsilon = 0.25) : weights(1, 0) {
    Rng rng(seed);
    g = RandomBoundedDegreeGraph(n, 3, 3 * n, false, rng);
    query = AtomQuery::Adjacency("E");
    index = std::make_unique<QueryIndex>(g, *query, AllParams(g, 1));
    weights = RandomWeights(g, 1000, 9999, rng);
    LocalSchemeOptions opts;
    opts.epsilon = epsilon;
    opts.key = {seed, seed + 1};
    opts.encoding = PairEncoding::kAntipodal;
    scheme = std::make_unique<LocalScheme>(
        LocalScheme::Plan(*index, opts).ValueOrDie());
  }
};

TEST(AdversarialTest, CapacityIsBasePairsOverRedundancy) {
  Fixture s(300, 1);
  AdversarialScheme adv(*s.scheme, 5);
  EXPECT_EQ(adv.CapacityBits(), s.scheme->CapacityBits() / 5);
  EXPECT_EQ(adv.Redundancy(), 5u);
}

TEST(AdversarialTest, CleanDetectionFullMargin) {
  Fixture s(300, 2);
  AdversarialScheme adv(*s.scheme, 5);
  if (adv.CapacityBits() == 0) GTEST_SKIP();
  Rng rng(2);
  BitVec msg(adv.CapacityBits());
  for (size_t i = 0; i < msg.size(); ++i) msg.Set(i, rng.Coin());
  WeightMap marked = adv.Embed(s.weights, msg);
  EXPECT_TRUE(SatisfiesLocalDistortion(s.weights, marked, 1));
  HonestServer server(*s.index, marked);
  auto detection = adv.Detect(s.weights, server).ValueOrDie();
  EXPECT_EQ(detection.mark, msg);
  EXPECT_EQ(detection.min_margin, 1.0);
}

TEST(AdversarialTest, SurvivesJitterAttack) {
  Fixture s(500, 3);
  AdversarialScheme adv(*s.scheme, 9);
  if (adv.CapacityBits() < 2) GTEST_SKIP();
  Rng rng(3);
  BitVec msg(adv.CapacityBits());
  for (size_t i = 0; i < msg.size(); ++i) msg.Set(i, rng.Coin());
  WeightMap marked = adv.Embed(s.weights, msg);

  int survived = 0;
  const int kTrials = 20;
  for (int trial = 0; trial < kTrials; ++trial) {
    WeightMap attacked = JitterAttack(marked, 0.2, rng);
    HonestServer server(*s.index, attacked);
    auto detection = adv.Detect(s.weights, server);
    if (detection.ok() && detection.value().mark == msg) ++survived;
  }
  // With +-1 jitter at rate 0.2 against +-2 antipodal deltas, a 9-way
  // majority is overwhelmingly safe.
  EXPECT_GE(survived, kTrials - 1);
}

TEST(AdversarialTest, MarginDegradesUnderNoise) {
  Fixture s(500, 4);
  AdversarialScheme adv(*s.scheme, 9);
  if (adv.CapacityBits() < 1) GTEST_SKIP();
  Rng rng(4);
  BitVec msg(adv.CapacityBits());
  WeightMap marked = adv.Embed(s.weights, msg);

  HonestServer clean(*s.index, marked);
  double clean_margin = adv.Detect(s.weights, clean).ValueOrDie().min_margin;

  WeightMap attacked = UniformNoiseAttack(marked, 2, rng);
  HonestServer noisy(*s.index, attacked);
  double noisy_margin = adv.Detect(s.weights, noisy).ValueOrDie().min_margin;
  EXPECT_LE(noisy_margin, clean_margin);
}

TEST(AdversarialTest, FalsePositiveMarginNearZero) {
  // Detecting against an *unrelated* weight function: votes are coin flips,
  // the margin collapses (limited-knowledge / false-positive bound).
  Fixture s(600, 5);
  AdversarialScheme adv(*s.scheme, 15);
  if (adv.CapacityBits() < 1) GTEST_SKIP();
  Rng rng(5);
  WeightMap unrelated = RandomWeights(s.g, 1000, 9999, rng);
  HonestServer server(*s.index, unrelated);
  auto detection = adv.Detect(s.weights, server).ValueOrDie();
  EXPECT_LE(detection.min_margin, 0.6);
}

TEST(AdversarialTest, GuessingAttackRarelyHitsPairs) {
  Fixture s(500, 6);
  AdversarialScheme adv(*s.scheme, 9);
  if (adv.CapacityBits() < 1) GTEST_SKIP();
  Rng rng(6);
  BitVec msg(adv.CapacityBits());
  for (size_t i = 0; i < msg.size(); ++i) msg.Set(i, rng.Coin());
  WeightMap marked = adv.Embed(s.weights, msg);
  WeightMap attacked = GuessingPairAttack(marked, *s.index, 20, rng);
  HonestServer server(*s.index, attacked);
  auto detection = adv.Detect(s.weights, server).ValueOrDie();
  EXPECT_EQ(detection.mark, msg);
}

TEST(AdversarialTest, CollusionAveragingDegradesDeltas) {
  // Two copies with complementary messages: averaging kills every pair delta
  // (the Section 5 auto-collusion hazard). A single copy plus itself is a
  // no-op.
  Fixture s(300, 8);
  AdversarialScheme adv(*s.scheme, 3);
  if (adv.CapacityBits() < 2) GTEST_SKIP();
  BitVec msg(adv.CapacityBits());
  for (size_t i = 0; i < msg.size(); i += 2) msg.Set(i, true);
  BitVec inverse = msg;
  for (size_t i = 0; i < inverse.size(); ++i) inverse.Flip(i);

  WeightMap copy1 = adv.Embed(s.weights, msg);
  WeightMap copy2 = adv.Embed(s.weights, inverse);

  const AveragingCollusion averaging;
  Rng rng(1);  // averaging is rng-free
  WeightMap self_avg = averaging.Forge({&copy1, &copy1}, rng).ValueOrDie();
  EXPECT_TRUE(self_avg == copy1);

  WeightMap averaged = averaging.Forge({&copy1, &copy2}, rng).ValueOrDie();
  // Antipodal +1/-1 on message-carrying pairs cancel exactly; only the
  // constant padding pairs beyond the last group may keep a +-1 residue.
  EXPECT_LE(averaged.LocalDistortion(s.weights), 1);
  HonestServer server(*s.index, averaged);
  auto detection = adv.Detect(s.weights, server).ValueOrDie();
  EXPECT_EQ(detection.min_margin, 0.0);  // every message vote neutralized
}

TEST(AdversarialTest, RedundancyOneEqualsPlainDetection) {
  Fixture s(200, 7);
  AdversarialScheme adv(*s.scheme, 1);
  EXPECT_EQ(adv.CapacityBits(), s.scheme->CapacityBits());
  Rng rng(7);
  BitVec msg(adv.CapacityBits());
  for (size_t i = 0; i < msg.size(); ++i) msg.Set(i, rng.Coin());
  WeightMap marked = adv.Embed(s.weights, msg);
  HonestServer server(*s.index, marked);
  EXPECT_EQ(adv.Detect(s.weights, server).ValueOrDie().mark, msg);
  // The base scheme (antipodal) decodes the expanded mark identically.
  EXPECT_EQ(s.scheme->Detect(s.weights, server).ValueOrDie(), msg);
}

TEST(AdversarialTest, RoundingAttackRoundsToNearestMultiple) {
  WeightMap w(1, 6);
  w.SetElem(0, 7);    // -> 5 (7-5 <= 10-7)
  w.SetElem(1, 8);    // -> 10
  w.SetElem(2, 10);   // -> 10
  w.SetElem(3, 0);    // -> 0
  w.SetElem(4, -7);   // -> -5 (ties and sign mirror the positive case)
  w.SetElem(5, 13);   // -> 15
  WeightMap rounded = RoundingAttack(w, 5);
  EXPECT_EQ(rounded.GetElem(0), 5);
  EXPECT_EQ(rounded.GetElem(1), 10);
  EXPECT_EQ(rounded.GetElem(2), 10);
  EXPECT_EQ(rounded.GetElem(3), 0);
  EXPECT_EQ(rounded.GetElem(4), -5);
  EXPECT_EQ(rounded.GetElem(5), 15);
  // Granularity 1 is the identity.
  EXPECT_TRUE(RoundingAttack(w, 1) == w);
}

TEST(AdversarialTest, SurvivesRoundingAttack) {
  // Rounding to granularity 2 moves each weight by at most 1 — inside the
  // attacker's bounded-distortion budget, so majorities survive.
  Fixture s(500, 9);
  AdversarialScheme adv(*s.scheme, 9);
  if (adv.CapacityBits() < 1) GTEST_SKIP();
  Rng rng(9);
  BitVec msg(adv.CapacityBits());
  for (size_t i = 0; i < msg.size(); ++i) msg.Set(i, rng.Coin());
  WeightMap marked = adv.Embed(s.weights, msg);
  WeightMap attacked = RoundingAttack(marked, 2);
  HonestServer server(*s.index, attacked);
  auto detection = adv.Detect(s.weights, server).ValueOrDie();
  EXPECT_EQ(detection.mark, msg);
  // Coarse rounding (granularity 50) may destroy the mark, but it also
  // destroys the data; detection still returns a full partial report.
  WeightMap coarse = RoundingAttack(marked, 50);
  HonestServer coarse_server(*s.index, coarse);
  auto coarse_detection = adv.Detect(s.weights, coarse_server).ValueOrDie();
  EXPECT_EQ(coarse_detection.bits_recovered + coarse_detection.bits_erased,
            coarse_detection.mark.size());
}

TEST(AdversarialTest, WeightOnlyAttacksNeverReportErasures) {
  // Value tampering (jitter, noise, rounding, pair guessing, collusion)
  // keeps every element answerable: the erasure accounting must stay silent
  // and every bit group must stay at full size.
  Fixture s(400, 10);
  AdversarialScheme adv(*s.scheme, 5);
  if (adv.CapacityBits() < 1) GTEST_SKIP();
  Rng rng(10);
  BitVec msg(adv.CapacityBits());
  for (size_t i = 0; i < msg.size(); ++i) msg.Set(i, rng.Coin());
  WeightMap marked = adv.Embed(s.weights, msg);

  const WeightMap attacked[] = {
      JitterAttack(marked, 0.3, rng),
      UniformNoiseAttack(marked, 2, rng),
      RoundingAttack(marked, 3),
      GuessingPairAttack(marked, *s.index, 10, rng),
      AveragingCollusion().Forge({&marked, &marked}, rng).ValueOrDie(),
  };
  for (const WeightMap& w : attacked) {
    HonestServer server(*s.index, w);
    auto detection = adv.Detect(s.weights, server).ValueOrDie();
    EXPECT_EQ(detection.pairs_erased, 0u);
    EXPECT_EQ(detection.bits_erased, 0u);
    EXPECT_TRUE(detection.complete());
    ASSERT_EQ(detection.group_sizes.size(), detection.mark.size());
    for (uint32_t g : detection.group_sizes) {
      EXPECT_EQ(g, adv.Redundancy());
    }
    for (bool erased : detection.bit_erased) {
      EXPECT_FALSE(erased);
    }
  }
}

TEST(AdversarialTest, TreeSchemeWrapperSurvivesJitter) {
  // The wrapper is scheme-agnostic: robust XML/tree watermarking.
  Alphabet sigma;
  sigma.Intern("a");
  sigma.Intern("b");
  sigma.Intern("c");
  Dta query = CompileMso(*MustParseFormula("LEQ(u, v) & P_b(v)"), sigma, {"u", "v"})
                  .ValueOrDie()
                  .dta;
  Rng rng(71);
  BinaryTree t = RandomBinaryTree(1000, 3, rng);
  WeightMap w(1, t.size());
  for (NodeId v = 0; v < t.size(); ++v) w.SetElem(v, rng.Uniform(100, 999));

  TreeSchemeOptions opts;
  opts.key = {71, 72};
  opts.encoding = PairEncoding::kAntipodal;
  auto base = TreeScheme::Plan(t, t.labels(), 3, query, 1, opts).ValueOrDie();
  AdversarialScheme adv(base, 7);
  if (adv.CapacityBits() < 2) GTEST_SKIP();

  BitVec msg(adv.CapacityBits());
  for (size_t i = 0; i < msg.size(); ++i) msg.Set(i, rng.Coin());
  WeightMap marked = adv.Embed(w, msg);
  EXPECT_LE(w.LocalDistortion(marked), 1);

  int survived = 0;
  for (int trial = 0; trial < 10; ++trial) {
    WeightMap attacked = JitterAttack(marked, 0.2, rng);
    HonestTreeServer server(t, t.labels(), 3, query, 1, attacked);
    auto detection = adv.Detect(w, server);
    survived += detection.ok() && detection.value().mark == msg;
  }
  EXPECT_GE(survived, 9);
}

}  // namespace
}  // namespace qpwm
