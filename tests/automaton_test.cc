#include <gtest/gtest.h>

#include "qpwm/tree/automaton.h"
#include "qpwm/tree/bintree.h"
#include "qpwm/util/random.h"

namespace qpwm {
namespace {

// Automaton over {a=0, b=1} accepting trees containing at least one 'b'.
Dta HasBAutomaton() {
  Dta d(2, 2);  // state 0 = no b yet, state 1 = b seen
  for (uint32_t sym = 0; sym < 2; ++sym) {
    for (State l : {kAbsentChild, State{0}, State{1}}) {
      for (State r : {kAbsentChild, State{0}, State{1}}) {
        bool seen = sym == 1 || l == 1 || r == 1;
        d.AddTransition(l, r, sym, seen ? 1 : 0);
      }
    }
  }
  d.SetAccepting(1, true);
  return d;
}

// Automaton accepting trees whose root label is 'a'.
Dta RootIsAAutomaton() {
  Dta d(2, 2);  // state = last label (0 = a, 1 = b)
  for (uint32_t sym = 0; sym < 2; ++sym) {
    for (State l : {kAbsentChild, State{0}, State{1}}) {
      for (State r : {kAbsentChild, State{0}, State{1}}) {
        d.AddTransition(l, r, sym, sym);
      }
    }
  }
  d.SetAccepting(0, true);
  return d;
}

std::vector<uint32_t> Labels(const BinaryTree& t) { return t.labels(); }

TEST(DtaTest, RunHasB) {
  Dta d = HasBAutomaton();
  BinaryTree all_a = CompleteTree(7, 1);  // labels all 0
  EXPECT_FALSE(d.Accepts(all_a, Labels(all_a)));

  BinaryTree t = CompleteTree(7, 1);
  std::vector<uint32_t> labels = Labels(t);
  labels[5] = 1;
  EXPECT_TRUE(d.Accepts(t, labels));
}

TEST(DtaTest, MissingTransitionGoesToSink) {
  Dta d(1, 2);
  d.AddTransition(kAbsentChild, kAbsentChild, 0, 0);
  d.SetAccepting(0, true);
  BinaryTree leaf;
  leaf.AddNode(1);
  ASSERT_TRUE(leaf.Finalize().ok());
  // Label 1 has no leaf transition: run dies in the sink.
  EXPECT_FALSE(d.Accepts(leaf, Labels(leaf)));
  const TreeLayout layout = TreeLayout::Build(leaf, Labels(leaf), 2).ValueOrDie();
  EXPECT_EQ(StepTable(d).Run(layout, layout.absent(), 0)[0], d.sink());
}

TEST(DtaTest, ComplementFlipsAcceptance) {
  Rng rng(1);
  Dta d = HasBAutomaton();
  Dta c = d.Complement();
  for (int i = 0; i < 30; ++i) {
    BinaryTree t = RandomBinaryTree(1 + rng.Below(20), 2, rng);
    EXPECT_NE(d.Accepts(t, Labels(t)), c.Accepts(t, Labels(t)));
  }
}

TEST(DtaTest, ComplementOfSinkIsAccepting) {
  Dta d(1, 2);
  d.AddTransition(kAbsentChild, kAbsentChild, 0, 0);
  Dta c = d.Complement();
  BinaryTree leaf;
  leaf.AddNode(1);
  ASSERT_TRUE(leaf.Finalize().ok());
  EXPECT_TRUE(c.Accepts(leaf, Labels(leaf)));  // sink became accepting
}

TEST(DtaTest, ProductConjunction) {
  Rng rng(3);
  Dta a = HasBAutomaton();
  Dta b = RootIsAAutomaton();
  Dta both = Dta::Product(a, b, true);
  Dta either = Dta::Product(a, b, false);
  for (int i = 0; i < 50; ++i) {
    BinaryTree t = RandomBinaryTree(1 + rng.Below(15), 2, rng);
    bool ea = a.Accepts(t, Labels(t));
    bool eb = b.Accepts(t, Labels(t));
    EXPECT_EQ(both.Accepts(t, Labels(t)), ea && eb);
    EXPECT_EQ(either.Accepts(t, Labels(t)), ea || eb);
  }
}

TEST(DtaTest, ProductWithComplementedSink) {
  Rng rng(9);
  Dta a = HasBAutomaton().Complement();
  Dta b = RootIsAAutomaton();
  Dta both = Dta::Product(a, b, true);
  for (int i = 0; i < 50; ++i) {
    BinaryTree t = RandomBinaryTree(1 + rng.Below(15), 2, rng);
    EXPECT_EQ(both.Accepts(t, Labels(t)),
              a.Accepts(t, Labels(t)) && b.Accepts(t, Labels(t)));
  }
}

TEST(DtaTest, MinimizePreservesLanguage) {
  Rng rng(5);
  Dta big = Dta::Product(HasBAutomaton(), RootIsAAutomaton(), true);
  Dta small = big.Minimize();
  EXPECT_LE(small.num_states(), big.num_states());
  for (int i = 0; i < 80; ++i) {
    BinaryTree t = RandomBinaryTree(1 + rng.Below(18), 2, rng);
    EXPECT_EQ(big.Accepts(t, Labels(t)), small.Accepts(t, Labels(t)));
  }
}

TEST(DtaTest, MinimizeMergesEquivalentStates) {
  // Two states with identical behavior collapse.
  Dta d(2, 1);
  d.AddTransition(kAbsentChild, kAbsentChild, 0, 0);
  d.AddTransition(0, kAbsentChild, 0, 1);
  d.AddTransition(1, kAbsentChild, 0, 0);
  d.SetAccepting(0, true);
  d.SetAccepting(1, true);
  Dta m = d.Minimize();
  EXPECT_EQ(m.num_states(), 1u);
}

TEST(DtaTest, RemapSymbolsCylindrify) {
  // Double the alphabet: each old symbol s becomes {s, s + 2} (new bit free).
  Dta d = HasBAutomaton();
  std::vector<std::vector<uint32_t>> mapping{{0, 2}, {1, 3}};
  Dta wide = d.RemapSymbols(4, mapping);
  Rng rng(6);
  for (int i = 0; i < 30; ++i) {
    BinaryTree t = RandomBinaryTree(1 + rng.Below(12), 2, rng);
    std::vector<uint32_t> labels = Labels(t);
    std::vector<uint32_t> wide_labels = labels;
    for (auto& l : wide_labels) {
      if (rng.Coin()) l += 2;  // the free bit is ignored
    }
    EXPECT_EQ(d.Accepts(t, labels), wide.Accepts(t, wide_labels));
  }
}

TEST(NtaTest, DeterminizeRoundTrip) {
  Rng rng(7);
  Dta d = Dta::Product(HasBAutomaton(), RootIsAAutomaton(), false);
  Dta d2 = d.ToNta().Determinize();
  for (int i = 0; i < 60; ++i) {
    BinaryTree t = RandomBinaryTree(1 + rng.Below(15), 2, rng);
    EXPECT_EQ(d.Accepts(t, Labels(t)), d2.Accepts(t, Labels(t)));
  }
}

TEST(NtaTest, DeterminizeWithAcceptingSink) {
  Rng rng(8);
  Dta d = HasBAutomaton().Complement();  // accepting sink
  Dta d2 = d.ToNta().Determinize();
  for (int i = 0; i < 60; ++i) {
    BinaryTree t = RandomBinaryTree(1 + rng.Below(15), 2, rng);
    EXPECT_EQ(d.Accepts(t, Labels(t)), d2.Accepts(t, Labels(t)));
  }
}

TEST(NtaTest, ProjectionUnionSemantics) {
  // Alphabet {a0, b0, a1, b1} (bit = second track). Project the track from
  // the has-b automaton lifted to 2 tracks: accept iff SOME bit assignment
  // yields a 'b is present' — i.e. base has a b. (The bit is free.)
  Dta d = HasBAutomaton();
  std::vector<std::vector<uint32_t>> to_wide{{0, 2}, {1, 3}};
  Dta wide = d.RemapSymbols(4, to_wide);
  // Now project back: {0,2}->0, {1,3}->1.
  std::vector<std::vector<uint32_t>> proj{{0}, {1}, {0}, {1}};
  Dta back = wide.ToNta().RemapSymbols(2, proj).Determinize();
  Rng rng(10);
  for (int i = 0; i < 40; ++i) {
    BinaryTree t = RandomBinaryTree(1 + rng.Below(12), 2, rng);
    EXPECT_EQ(back.Accepts(t, Labels(t)), d.Accepts(t, Labels(t)));
  }
}

// Random (total-ish) deterministic automaton for property tests.
Dta RandomDta(uint32_t states, uint32_t alphabet, double keep, Rng& rng) {
  Dta d(states, alphabet);
  std::vector<State> child_domain{kAbsentChild};
  for (State q = 0; q < states; ++q) child_domain.push_back(q);
  for (State l : child_domain) {
    for (State r : child_domain) {
      for (uint32_t sym = 0; sym < alphabet; ++sym) {
        if (rng.Bernoulli(keep)) {
          d.AddTransition(l, r, sym, static_cast<State>(rng.Below(states)));
        }
      }
    }
  }
  for (State q = 0; q < states; ++q) d.SetAccepting(q, rng.Coin());
  return d;
}

class AutomatonPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AutomatonPropertyTest, DeMorganOnRandomAutomata) {
  Rng rng(GetParam());
  Dta a = RandomDta(4, 3, 0.8, rng);
  Dta b = RandomDta(3, 3, 0.8, rng);
  // !(a & b) == !a | !b
  Dta lhs = Dta::Product(a, b, true).Complement();
  Dta rhs = Dta::Product(a.Complement(), b.Complement(), false);
  EXPECT_TRUE(Dta::Equivalent(lhs, rhs));
  for (int i = 0; i < 25; ++i) {
    BinaryTree t = RandomBinaryTree(1 + rng.Below(12), 3, rng);
    EXPECT_EQ(lhs.Accepts(t, t.labels()), rhs.Accepts(t, t.labels()));
  }
}

TEST_P(AutomatonPropertyTest, MinimizeIsIdempotentAndEquivalent) {
  Rng rng(GetParam() * 31 + 7);
  Dta a = RandomDta(6, 2, 0.7, rng);
  Dta m1 = a.Minimize();
  Dta m2 = m1.Minimize();
  EXPECT_EQ(m1.num_states(), m2.num_states());
  EXPECT_TRUE(Dta::Equivalent(a, m1));
  for (int i = 0; i < 25; ++i) {
    BinaryTree t = RandomBinaryTree(1 + rng.Below(14), 2, rng);
    EXPECT_EQ(a.Accepts(t, t.labels()), m1.Accepts(t, t.labels()));
  }
}

TEST_P(AutomatonPropertyTest, DeterminizeOfToNtaIsEquivalent) {
  Rng rng(GetParam() * 97 + 3);
  Dta a = RandomDta(5, 2, 0.6, rng);
  EXPECT_TRUE(Dta::Equivalent(a, a.ToNta().Determinize()));
}

TEST_P(AutomatonPropertyTest, DoubleComplementIsIdentity) {
  Rng rng(GetParam() * 11 + 1);
  Dta a = RandomDta(5, 3, 0.75, rng);
  EXPECT_TRUE(Dta::Equivalent(a, a.Complement().Complement()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AutomatonPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(DtaAnalysisTest, EmptyAndUniversal) {
  // No accepting state: empty.
  Dta never(1, 2);
  never.AddTransition(kAbsentChild, kAbsentChild, 0, 0);
  EXPECT_TRUE(never.IsEmpty());
  EXPECT_FALSE(never.IsUniversal());
  // Complement of empty over a total automaton: universal.
  Dta all(1, 2);
  for (uint32_t sym = 0; sym < 2; ++sym) {
    all.AddTransition(kAbsentChild, kAbsentChild, sym, 0);
    all.AddTransition(0, kAbsentChild, sym, 0);
    all.AddTransition(kAbsentChild, 0, sym, 0);
    all.AddTransition(0, 0, sym, 0);
  }
  all.SetAccepting(0, true);
  EXPECT_FALSE(all.IsEmpty());
  EXPECT_TRUE(all.IsUniversal());
  EXPECT_TRUE(all.Complement().IsEmpty());
}

TEST(DtaAnalysisTest, SinkAcceptingReachableViaMissingLeaf) {
  // Accepting sink + a missing leaf key: non-empty.
  Dta d(1, 2);
  d.AddTransition(kAbsentChild, kAbsentChild, 0, 0);  // symbol 1 leaf missing
  d.SetAccepting(d.sink(), true);
  EXPECT_FALSE(d.IsEmpty());
}

TEST(DtaAnalysisTest, SinkAcceptingReachableViaMissingInternalKey) {
  Dta d(1, 1);
  d.AddTransition(kAbsentChild, kAbsentChild, 0, 0);
  // No internal transitions stored: any 2-node tree dies in the sink.
  d.SetAccepting(d.sink(), true);
  EXPECT_FALSE(d.IsEmpty());
}

TEST(DtaAnalysisTest, EquivalenceDistinguishes) {
  Dta a = HasBAutomaton();
  Dta b = RootIsAAutomaton();
  EXPECT_FALSE(Dta::Equivalent(a, b));
  EXPECT_TRUE(Dta::Equivalent(a, a));
}

TEST(NtaTest, HandBuiltNondeterminism) {
  // Guess at the leaf whether to be in state 0 or 1; accept only from 1.
  Nta n(2, 1);
  n.AddTransition(kAbsentChild, kAbsentChild, 0, 0);
  n.AddTransition(kAbsentChild, kAbsentChild, 0, 1);
  n.AddTransition(0, kAbsentChild, 0, 0);
  n.AddTransition(1, kAbsentChild, 0, 1);
  n.SetAccepting(1, true);
  Dta d = n.Determinize();
  BinaryTree chain = ChainTree(4, 1);
  EXPECT_TRUE(d.Accepts(chain, Labels(chain)));
}

}  // namespace
}  // namespace qpwm
