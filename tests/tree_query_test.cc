#include <gtest/gtest.h>

#include <algorithm>

#include "qpwm/logic/parser.h"
#include "qpwm/tree/mso.h"
#include "qpwm/tree/query.h"
#include "qpwm/util/random.h"
#include "qpwm/xml/encode.h"
#include "qpwm/xml/xpath.h"

namespace qpwm {
namespace {

// The hashed evaluation loop EvaluateWa ran before it moved onto StepTable,
// kept here as the oracle: every step is a Dta::Step hash lookup.
uint32_t ReferenceSymbolAt(uint32_t base_label, uint32_t base_count,
                           uint32_t param_arity, bool a_here, bool b_here) {
  uint32_t bits;
  if (param_arity == 0) {
    bits = b_here ? 1 : 0;
  } else {
    bits = (a_here ? 1 : 0) | (b_here ? 2u : 0);
  }
  return base_label + base_count * bits;
}

std::vector<NodeId> ReferenceEvaluateWa(const BinaryTree& t,
                                        const std::vector<uint32_t>& base_labels,
                                        uint32_t base_count, const Dta& dta,
                                        uint32_t param_arity, NodeId a) {
  const size_t n = t.size();
  const uint32_t m = dta.num_states() + 1;  // sink included

  std::vector<State> sa(n);
  for (NodeId v : t.Postorder()) {
    State l = t.left(v) == kNoNode ? kAbsentChild : sa[t.left(v)];
    State r = t.right(v) == kNoNode ? kAbsentChild : sa[t.right(v)];
    uint32_t sym = ReferenceSymbolAt(base_labels[v], base_count, param_arity,
                                     param_arity == 1 && v == a, false);
    sa[v] = dta.Step(l, r, sym);
  }

  std::vector<uint8_t> ctx(n * m);
  auto ctx_at = [&](NodeId v, State q) -> uint8_t& { return ctx[v * m + q]; };
  for (State q = 0; q < m; ++q) {
    ctx_at(t.root(), q) = dta.IsAccepting(q) ? 1 : 0;
  }
  const auto& post = t.Postorder();
  for (auto it = post.rbegin(); it != post.rend(); ++it) {
    NodeId v = *it;
    NodeId lc = t.left(v);
    NodeId rc = t.right(v);
    uint32_t sym = ReferenceSymbolAt(base_labels[v], base_count, param_arity,
                                     param_arity == 1 && v == a, false);
    if (lc != kNoNode) {
      State rs = rc == kNoNode ? kAbsentChild : sa[rc];
      for (State q = 0; q < m; ++q) {
        ctx_at(lc, q) = ctx_at(v, dta.Step(q, rs, sym));
      }
    }
    if (rc != kNoNode) {
      State ls = lc == kNoNode ? kAbsentChild : sa[lc];
      for (State q = 0; q < m; ++q) {
        ctx_at(rc, q) = ctx_at(v, dta.Step(ls, q, sym));
      }
    }
  }

  std::vector<NodeId> out;
  for (NodeId b = 0; b < n; ++b) {
    State l = t.left(b) == kNoNode ? kAbsentChild : sa[t.left(b)];
    State r = t.right(b) == kNoNode ? kAbsentChild : sa[t.right(b)];
    uint32_t sym = ReferenceSymbolAt(base_labels[b], base_count, param_arity,
                                     param_arity == 1 && b == a, true);
    if (ctx_at(b, dta.Step(l, r, sym))) out.push_back(b);
  }
  return out;
}

/// Requires StepTable::Step == Dta::Step on every (left, right, sym), the
/// absent child and the sink included, and the same accepting flags.
void ExpectTableMatchesDta(const Dta& dta, const std::string& what) {
  const StepTable table(dta);
  ASSERT_EQ(table.num_states(), dta.num_states()) << what;
  ASSERT_EQ(table.alphabet_size(), dta.alphabet_size()) << what;
  EXPECT_GE(table.num_classes(), 1u) << what;
  EXPECT_LE(table.num_classes(), dta.alphabet_size()) << what;
  std::vector<State> children{kAbsentChild};
  for (State q = 0; q <= dta.num_states(); ++q) children.push_back(q);
  size_t mismatches = 0;
  for (uint32_t sym = 0; sym < dta.alphabet_size(); ++sym) {
    for (State l : children) {
      for (State r : children) {
        if (table.Step(l, r, sym) == dta.Step(l, r, sym)) continue;
        if (mismatches++ == 0) {
          ADD_FAILURE() << what << ": first mismatch at left " << l << " right " << r
                        << " sym " << sym;
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << what;
  for (State q = 0; q <= dta.num_states(); ++q) {
    EXPECT_EQ(table.IsAccepting(q), dta.IsAccepting(q)) << what << " state " << q;
  }
}

class TreeQueryTest : public ::testing::Test {
 protected:
  TreeQueryTest() {
    sigma_.Intern("a");
    sigma_.Intern("b");
    sigma_.Intern("c");
  }

  Dta CompileQuery(const std::string& text, std::vector<std::string> vars) {
    FormulaPtr f = MustParseFormula(text);
    return CompileMso(*f, sigma_, vars).ValueOrDie().dta;
  }

  static TreeLayout LayOut(const BinaryTree& t) {
    return TreeLayout::Build(t, t.labels(), 3).ValueOrDie();
  }

  static TreeQuery Query(const Dta& dta, uint32_t param_arity) {
    return TreeQuery::Compile(dta, 3, param_arity).ValueOrDie();
  }

  Alphabet sigma_;
};

TEST_F(TreeQueryTest, EvaluateWaMatchesMemberWa) {
  const TreeQuery query = Query(CompileQuery("LEQ(u, v) & P_b(v)", {"u", "v"}), 1);
  Rng rng(21);
  for (int trial = 0; trial < 6; ++trial) {
    BinaryTree t = RandomBinaryTree(2 + rng.Below(40), 3, rng);
    const TreeLayout layout = LayOut(t);
    for (NodeId a = 0; a < t.size(); ++a) {
      auto wa = EvaluateWa(layout, query, a);
      for (NodeId b = 0; b < t.size(); ++b) {
        bool in = std::binary_search(wa.begin(), wa.end(), b);
        EXPECT_EQ(in, MemberWa(layout, query, a, b))
            << "a=" << a << " b=" << b;
      }
    }
  }
}

TEST_F(TreeQueryTest, EvaluateWaSemantics) {
  const TreeQuery query = Query(CompileQuery("LEQ(u, v) & P_b(v)", {"u", "v"}), 1);
  BinaryTree t = CompleteTree(7, 3);  // labels 0,1,2,0,1,2,0
  // W_root = b-labeled descendants of the root = nodes labeled 'b' (1).
  auto w = EvaluateWa(LayOut(t), query, t.root());
  std::vector<NodeId> expect;
  for (NodeId v = 0; v < 7; ++v) {
    if (t.label(v) == 1) expect.push_back(v);
  }
  EXPECT_EQ(w, expect);
}

TEST_F(TreeQueryTest, ParamArityZero) {
  const TreeQuery query = Query(CompileQuery("P_c(v) & LEAF(v)", {"v"}), 0);
  Rng rng(22);
  BinaryTree t = RandomBinaryTree(25, 3, rng);
  auto w = EvaluateWa(LayOut(t), query, 0);
  for (NodeId v = 0; v < t.size(); ++v) {
    bool expect = t.label(v) == 2 && t.IsLeaf(v);
    EXPECT_EQ(std::binary_search(w.begin(), w.end(), v), expect);
  }
}

TEST_F(TreeQueryTest, ResultPebbleOnParamNode) {
  // v = u is allowed: both pebbles on the same node.
  const TreeQuery query = Query(CompileQuery("LEQ(u, v)", {"u", "v"}), 1);
  BinaryTree t = ChainTree(5, 3);
  const TreeLayout layout = LayOut(t);
  for (NodeId a = 0; a < 5; ++a) {
    auto w = EvaluateWa(layout, query, a);
    EXPECT_TRUE(std::binary_search(w.begin(), w.end(), a));
  }
}

TEST_F(TreeQueryTest, ProjectParamTrackGivesActiveSet) {
  Dta dta = CompileQuery("LEQ(u, v) & P_b(v)", {"u", "v"});
  const TreeQuery query = Query(dta, 1);
  const TreeQuery exists_a = Query(ProjectParamTrack(dta, 3), 0);
  Rng rng(23);
  BinaryTree t = RandomBinaryTree(30, 3, rng);
  const TreeLayout layout = LayOut(t);
  auto active = EvaluateWa(layout, exists_a, 0);
  // Manual union of W_a.
  std::vector<bool> expect(t.size(), false);
  for (NodeId a = 0; a < t.size(); ++a) {
    for (NodeId b : EvaluateWa(layout, query, a)) expect[b] = true;
  }
  for (NodeId v = 0; v < t.size(); ++v) {
    EXPECT_EQ(std::binary_search(active.begin(), active.end(), v), expect[v]) << v;
  }
}

TEST_F(TreeQueryTest, SwapPebbleTracksInvertsRoles) {
  Dta dta = CompileQuery("S1(u, v)", {"u", "v"});
  const TreeQuery query = Query(dta, 1);
  const TreeQuery swapped = Query(SwapPebbleTracks(dta, 3), 1);
  Rng rng(24);
  BinaryTree t = RandomBinaryTree(20, 3, rng);
  const TreeLayout layout = LayOut(t);
  for (NodeId a = 0; a < t.size(); ++a) {
    for (NodeId b = 0; b < t.size(); ++b) {
      EXPECT_EQ(MemberWa(layout, query, a, b), MemberWa(layout, swapped, b, a));
    }
  }
}

TEST_F(TreeQueryTest, StepTableMatchesDtaStep) {
  for (const char* text :
       {"LEQ(u, v) & P_b(v)", "LEQ(u, v) & P_a(v)", "LEQ(u, v) & P_c(v)", "S1(u, v)"}) {
    Dta dta = CompileQuery(text, {"u", "v"});
    ExpectTableMatchesDta(dta, text);
    ExpectTableMatchesDta(dta.Complement(), std::string("~") + text);
    ExpectTableMatchesDta(ProjectParamTrack(dta, 3), std::string("project ") + text);
    ExpectTableMatchesDta(SwapPebbleTracks(dta, 3), std::string("swap ") + text);
  }
  ExpectTableMatchesDta(CompileQuery("P_c(v) & LEAF(v)", {"v"}), "P_c(v) & LEAF(v)");
}

TEST_F(TreeQueryTest, StepTableMatchesDtaStepOnXPathAutomata) {
  // Two first names keep the compile to seconds (the automaton grows
  // exponentially with the name pool); the 30-student one has 38 states.
  Rng rng(25);
  for (const XmlDocument& doc :
       {SchoolExampleDocument(), RandomSchoolDocument(30, rng, 0, 20, 2)}) {
    EncodedXml enc = EncodeXml(doc, {"exam"}).ValueOrDie();
    for (const char* xpath : {"school/student[firstname=$1]/exam", "school/student/exam"}) {
      XPathQuery q = XPathQuery::Parse(xpath).ValueOrDie();
      const Dta dta = q.Compile(enc).ValueOrDie().dta;
      ExpectTableMatchesDta(dta, xpath);
      const auto base = static_cast<uint32_t>(enc.sigma.size());
      const TreeQuery query =
          TreeQuery::Compile(dta, base, q.has_param() ? 1 : 0).ValueOrDie();
      const StepTable& table = query.table();
      const TreeLayout layout = TreeLayout::Build(enc.tree, enc.tree.labels(), base).ValueOrDie();
      if (!q.has_param()) {
        EXPECT_EQ(EvaluateWa(layout, query, 0),
                  ReferenceEvaluateWa(enc.tree, enc.tree.labels(), base, dta, 0, 0))
            << xpath;
        continue;
      }
      // Symbols sharing a column share a class: the table is smaller than
      // one plane per symbol.
      EXPECT_LT(table.num_classes(), table.alphabet_size()) << xpath;
      for (NodeId p : q.ParamTreeNodes(enc)) {
        EXPECT_EQ(EvaluateWa(layout, query, p),
                  ReferenceEvaluateWa(enc.tree, enc.tree.labels(), base, dta, 1, p))
            << xpath << " param " << p;
      }
    }
  }
}

TEST_F(TreeQueryTest, EvaluateWaMatchesHashedReference) {
  struct NamedQuery {
    Dta dta;
    uint32_t param_arity;
    std::string name;
  };
  std::vector<NamedQuery> queries;
  for (const char* text : {"LEQ(u, v) & P_b(v)", "S1(u, v)", "S2(u, v) & P_a(v)"}) {
    Dta dta = CompileQuery(text, {"u", "v"});
    queries.push_back({ProjectParamTrack(dta, 3), 0, std::string("project ") + text});
    queries.push_back({SwapPebbleTracks(dta, 3), 1, std::string("swap ") + text});
    queries.push_back({dta.Complement(), 1, std::string("~") + text});
    queries.push_back({std::move(dta), 1, text});
  }
  queries.push_back({CompileQuery("P_c(v) & LEAF(v)", {"v"}), 0, "P_c(v) & LEAF(v)"});

  Rng rng(26);
  for (size_t n : {1, 2, 3, 600}) {
    BinaryTree t = RandomBinaryTree(n, 3, rng);
    const TreeLayout layout = LayOut(t);
    // Every node on the small trees, a sample on the large one, and always
    // one node outside the tree (no parameter pebble placed).
    std::vector<NodeId> params;
    if (n <= 3) {
      for (NodeId a = 0; a < n; ++a) params.push_back(a);
    } else {
      params.push_back(t.root());
      for (int i = 0; i < 24; ++i) params.push_back(static_cast<NodeId>(rng.Below(n)));
    }
    params.push_back(static_cast<NodeId>(n));
    for (const NamedQuery& q : queries) {
      const TreeQuery query = Query(q.dta, q.param_arity);
      for (NodeId a : q.param_arity == 1 ? params : std::vector<NodeId>{0}) {
        EXPECT_EQ(EvaluateWa(layout, query, a),
                  ReferenceEvaluateWa(t, t.labels(), 3, q.dta, q.param_arity, a))
            << q.name << " n=" << n << " a=" << a;
      }
    }
  }
}

}  // namespace
}  // namespace qpwm
