// Tests for the composed adversary: stacked value + structural attacks from
// one recorded seed, burst region deletion, and the collusion variants
// beyond averaging.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "qpwm/core/adversarial.h"
#include "qpwm/core/attack.h"
#include "qpwm/core/local_scheme.h"
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

TEST(ComposedAttackTest, SpecSeedDefaultsAndIsRecorded) {
  ComposedAttackSpec spec;
  EXPECT_EQ(spec.seed, kDefaultAttackSeed);

  Fixture s(200, 3);
  spec.noise = 2;
  spec.deletion_frac = 0.2;
  spec.seed = 12345;
  ComposedSuspect suspect =
      ApplyComposedAttack(*s.index, s.scheme->marking().pairs(), 5, s.weights,
                          spec);
  EXPECT_EQ(suspect.seed, 12345u);
}

TEST(ComposedAttackTest, EqualSpecsProduceByteIdenticalSuspects) {
  Fixture s(300, 5);
  ComposedAttackSpec spec;
  spec.noise = 3;
  spec.jitter_prob = 0.1;
  spec.rounding = 2;
  spec.deletion_frac = 0.15;
  spec.region_frac = 0.2;
  spec.insertion_frac = 0.25;
  spec.seed = 99;

  ComposedSuspect a = ApplyComposedAttack(*s.index, s.scheme->marking().pairs(),
                                          5, s.weights, spec);
  ComposedSuspect b = ApplyComposedAttack(*s.index, s.scheme->marking().pairs(),
                                          5, s.weights, spec);
  EXPECT_EQ(a.elements_erased, b.elements_erased);
  EXPECT_EQ(a.rows_inserted, b.rows_inserted);
  for (size_t p = 0; p < s.index->num_params(); ++p) {
    const AnswerSet ra = a.server->Answer(s.index->param(p));
    const AnswerSet rb = b.server->Answer(s.index->param(p));
    ASSERT_EQ(ra.size(), rb.size()) << "param " << p;
    for (size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].element, rb[i].element);
      EXPECT_EQ(ra[i].weight, rb[i].weight);
    }
  }

  // A different seed is a different suspect (the stages really draw on it).
  spec.seed = 100;
  ComposedSuspect c = ApplyComposedAttack(*s.index, s.scheme->marking().pairs(),
                                          5, s.weights, spec);
  bool any_difference = c.elements_erased != a.elements_erased;
  for (size_t p = 0; !any_difference && p < s.index->num_params(); ++p) {
    const AnswerSet ra = a.server->Answer(s.index->param(p));
    const AnswerSet rc = c.server->Answer(s.index->param(p));
    if (ra.size() != rc.size()) {
      any_difference = true;
      break;
    }
    for (size_t i = 0; i < ra.size(); ++i) {
      any_difference |= ra[i].element != rc[i].element ||
                        ra[i].weight != rc[i].weight;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(ComposedAttackTest, DisabledStagesLeaveTheDataAlone) {
  Fixture s(200, 7);
  ComposedAttackSpec spec;  // everything off
  ComposedSuspect suspect =
      ApplyComposedAttack(*s.index, {}, 5, s.weights, spec);
  EXPECT_EQ(suspect.elements_erased, 0u);
  EXPECT_EQ(suspect.rows_inserted, 0u);
  HonestServer honest(*s.index, s.weights);
  for (size_t p = 0; p < s.index->num_params(); ++p) {
    const AnswerSet a = suspect.server->Answer(s.index->param(p));
    const AnswerSet b = honest.Answer(s.index->param(p));
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].weight, b[i].weight);
    }
  }
}

TEST(ComposedAttackTest, RegionDeletionIsAContiguousGroupBurst) {
  Fixture s(400, 9);
  const std::vector<WeightPair>& pairs = s.scheme->marking().pairs();
  const size_t redundancy = 5;
  const size_t groups = pairs.size() / redundancy;
  ASSERT_GT(groups, 4u);

  Rng rng(90);
  const double frac = 0.3;
  std::vector<Tuple> deleted =
      PairRegionDeletionAttack(*s.index, pairs, redundancy, frac, rng);
  ASSERT_FALSE(deleted.empty());
  std::set<Tuple> gone(deleted.begin(), deleted.end());

  // A group is wiped iff every element of every one of its pairs was
  // deleted; the wiped groups must form one contiguous run of the expected
  // length and no other group may lose any element.
  std::vector<bool> wiped(groups, false);
  for (size_t g = 0; g < groups; ++g) {
    size_t hit = 0, total = 0;
    for (size_t k = 0; k < redundancy; ++k) {
      const WeightPair& pair = pairs[g * redundancy + k];
      total += 2;
      hit += gone.count(s.index->active_element(pair.plus));
      hit += gone.count(s.index->active_element(pair.minus));
    }
    ASSERT_TRUE(hit == 0 || hit == total) << "group " << g << " partially hit";
    wiped[g] = hit == total;
  }
  const size_t expected =
      static_cast<size_t>(frac * static_cast<double>(groups) + 0.5);
  const size_t first =
      std::find(wiped.begin(), wiped.end(), true) - wiped.begin();
  for (size_t g = 0; g < groups; ++g) {
    EXPECT_EQ(wiped[g], g >= first && g < first + expected) << "group " << g;
  }
}

TEST(ComposedAttackTest, RegionDeletionOffOrEmptyPairsIsANoOp) {
  Fixture s(100, 11);
  Rng rng(110);
  EXPECT_TRUE(PairRegionDeletionAttack(*s.index, s.scheme->marking().pairs(), 5,
                                       0.0, rng)
                  .empty());
  EXPECT_TRUE(PairRegionDeletionAttack(*s.index, {}, 5, 0.5, rng).empty());
}

TEST(ComposedAttackTest, InsertionCountTracksActiveFraction) {
  Fixture s(300, 13);
  ComposedAttackSpec spec;
  spec.insertion_frac = 0.5;
  ComposedSuspect suspect =
      ApplyComposedAttack(*s.index, {}, 5, s.weights, spec);
  EXPECT_EQ(suspect.rows_inserted, s.index->num_active() / 2);
}

// --- Collusion variants -----------------------------------------------------

WeightMap SmallMap(std::initializer_list<Weight> values) {
  WeightMap m(1, values.size());
  ElemId e = 0;
  for (Weight w : values) m.SetElem(e++, w);
  return m;
}

TEST(ComposedAttackTest, MedianCollusionTakesLowerMedian) {
  WeightMap a = SmallMap({10, 5, 7});
  WeightMap b = SmallMap({12, 5, 1});
  WeightMap c = SmallMap({11, 9, 4});
  Rng rng(1);  // median is rng-free
  WeightMap median = MedianCollusion().Forge({&a, &b, &c}, rng).ValueOrDie();
  EXPECT_EQ(median.GetElem(0), 11);
  EXPECT_EQ(median.GetElem(1), 5);
  EXPECT_EQ(median.GetElem(2), 4);

  // Even count: the lower of the two middle values, deterministically.
  WeightMap even = MedianCollusion().Forge({&a, &b}, rng).ValueOrDie();
  EXPECT_EQ(even.GetElem(0), 10);
  EXPECT_EQ(even.GetElem(2), 1);
}

TEST(ComposedAttackTest, MedianKillsSingleCopyDeltas) {
  // A pair delta carried by only one of three copies vanishes — the wash-out
  // property that makes median collusion stronger than averaging.
  WeightMap clean = SmallMap({100, 200});
  WeightMap marked = SmallMap({101, 199});
  Rng rng(1);
  WeightMap median =
      MedianCollusion().Forge({&marked, &clean, &clean}, rng).ValueOrDie();
  EXPECT_EQ(median.GetElem(0), 100);
  EXPECT_EQ(median.GetElem(1), 200);
}

TEST(ComposedAttackTest, MinMaxCollusionPicksExtremes) {
  WeightMap a = SmallMap({1, 9, 5, 5});
  WeightMap b = SmallMap({3, 7, 2, 8});
  Rng rng(17);
  WeightMap picked = MinMaxCollusion().Forge({&a, &b}, rng).ValueOrDie();
  EXPECT_TRUE(picked.GetElem(0) == 1 || picked.GetElem(0) == 3);
  EXPECT_TRUE(picked.GetElem(1) == 7 || picked.GetElem(1) == 9);
  EXPECT_TRUE(picked.GetElem(2) == 2 || picked.GetElem(2) == 5);
  EXPECT_TRUE(picked.GetElem(3) == 5 || picked.GetElem(3) == 8);
}

TEST(ComposedAttackTest, AllCollusionVariantsRejectBadCopySets) {
  WeightMap a = SmallMap({1, 2, 3});
  WeightMap other(1, 7);  // different domain
  Rng rng(19);

  auto check = [](const Status& status) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  };
  const AveragingCollusion averaging;
  const MedianCollusion median;
  const MinMaxCollusion minmax;
  check(averaging.Forge({}, rng).status());
  check(median.Forge({}, rng).status());
  check(minmax.Forge({}, rng).status());
  check(averaging.Forge({&a, &other}, rng).status());
  check(median.Forge({&a, &other}, rng).status());
  check(minmax.Forge({&a, &other}, rng).status());
  // The mismatch is caught wherever it sits in the copy list.
  check(averaging.Forge({&a, &a, &other}, rng).status());
  check(median.Forge({&a, &a, &other}, rng).status());
}

TEST(ComposedAttackTest, InterleavingCopiesSegmentsWholeFromOneMember) {
  // Three copies with pairwise distinct values everywhere, so every forged
  // weight identifies its source member unambiguously.
  const size_t n = 1000;
  WeightMap a(1, n), b(1, n), c(1, n);
  for (ElemId e = 0; e < n; ++e) {
    a.SetElem(e, 3 * static_cast<Weight>(e));
    b.SetElem(e, 3 * static_cast<Weight>(e) + 1);
    c.SetElem(e, 3 * static_cast<Weight>(e) + 2);
  }
  const std::vector<const WeightMap*> copies = {&a, &b, &c};
  InterleavingCollusion attack(64);
  EXPECT_EQ(attack.Name(), "interleave:64");
  Rng rng(23);
  WeightMap forged = attack.Forge(copies, rng).ValueOrDie();

  std::vector<size_t> member_hits(copies.size(), 0);
  for (ElemId e = 0; e < n; ++e) {
    const size_t owner = static_cast<size_t>(forged.GetElem(e) % 3);
    // Everything inside one 64-weight segment comes from the same member.
    if (e % 64 != 0) {
      EXPECT_EQ(owner, static_cast<size_t>(forged.GetElem(e - 1) % 3)) << e;
    }
    ++member_hits[owner];
  }
  for (size_t m = 0; m < copies.size(); ++m) {
    EXPECT_GT(member_hits[m], 0u) << "member " << m << " never sampled";
  }

  // Deterministic replay from the seed.
  Rng replay(23);
  EXPECT_EQ(attack.Forge(copies, replay).ValueOrDie(), forged);

  Rng other(24);
  WeightMap different = attack.Forge(copies, other).ValueOrDie();
  EXPECT_FALSE(different == forged);
}

TEST(ComposedAttackTest, InterleavingSharesTheDomainCheck) {
  WeightMap a = SmallMap({1, 2, 3});
  WeightMap other(1, 7);
  Rng rng(29);
  EXPECT_EQ(InterleavingCollusion().Forge({}, rng).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(InterleavingCollusion().Forge({&a, &other}, rng).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ComposedAttackTest, MakeCollusionAttackParsesSpecs) {
  for (const std::string& spec : KnownCollusionSpecs()) {
    auto attack = MakeCollusionAttack(spec);
    ASSERT_TRUE(attack.ok()) << spec;
  }
  EXPECT_EQ(MakeCollusionAttack("averaging").ValueOrDie()->Name(), "averaging");
  EXPECT_EQ(MakeCollusionAttack("interleave").ValueOrDie()->Name(),
            "interleave:64");
  EXPECT_EQ(MakeCollusionAttack("interleave:128").ValueOrDie()->Name(),
            "interleave:128");
  EXPECT_EQ(MakeCollusionAttack("bogus").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(MakeCollusionAttack("interleave:0").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(MakeCollusionAttack("interleave:x").status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace qpwm
