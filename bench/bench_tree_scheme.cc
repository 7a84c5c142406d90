// E7 — Theorem 5 / Lemma 3: the tree-automaton scheme. We sweep tree size
// and automaton state count m, reporting paired regions vs the |W|/4m
// analytical shape, detectable bits, realized distortion (must be <= 1), and
// detection accuracy; plus an automaton-size sweep showing the capacity's
// 1/m dependence and a shape sweep (random vs chain vs complete trees).
#include <chrono>
#include <iostream>

#include "qpwm/core/tree_scheme.h"
#include "qpwm/logic/parser.h"
#include "qpwm/tree/mso.h"
#include "qpwm/tree/query.h"
#include "qpwm/util/random.h"
#include "qpwm/util/str.h"
#include "qpwm/util/table.h"

using namespace qpwm;
using Clock = std::chrono::steady_clock;

namespace {

struct Row {
  size_t n;
  size_t active;
  uint32_t m;
  size_t paired;
  size_t bits;
  Weight realized;
  bool detect_ok;
  double plan_ms;
};

Row RunInstance(const BinaryTree& t, const Dta& query, uint64_t seed,
                bool check_distortion, bool check_detection) {
  Rng rng(seed);
  WeightMap w(1, t.size());
  for (NodeId v = 0; v < t.size(); ++v) w.SetElem(v, rng.Uniform(100, 999));

  TreeSchemeOptions opts;
  opts.key = {seed, seed * 3 + 1};
  auto t0 = Clock::now();
  auto scheme = TreeScheme::Plan(t, t.labels(), 3, query, 1, opts).ValueOrDie();
  auto t1 = Clock::now();

  Row row{};
  row.n = t.size();
  row.m = query.num_states();
  row.paired = scheme.RegionsPaired();
  row.bits = scheme.CapacityBits();
  row.plan_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  row.detect_ok = true;

  // Active count (for the |W|/4m shape).
  const TreeLayout layout = TreeLayout::Build(t, t.labels(), 3).ValueOrDie();
  const TreeQuery exists_a =
      TreeQuery::Compile(ProjectParamTrack(query, 3), 3, 0).ValueOrDie();
  row.active = EvaluateWa(layout, exists_a, 0).size();

  if (row.bits > 0) {
    BitVec mark(row.bits);
    for (size_t i = 0; i < row.bits; ++i) mark.Set(i, rng.Coin());
    WeightMap marked = scheme.Embed(w, mark);
    if (check_distortion) {
      Weight worst = 0;
      const TreeQuery compiled = TreeQuery::Compile(query, 3, 1).ValueOrDie();
      for (NodeId a = 0; a < t.size(); ++a) {
        Weight f0 = 0, f1 = 0;
        for (NodeId b : EvaluateWa(layout, compiled, a)) {
          f0 += w.GetElem(b);
          f1 += marked.GetElem(b);
        }
        worst = std::max(worst, std::abs(f1 - f0));
      }
      row.realized = worst;
    }
    if (check_detection) {
      HonestTreeServer server(t, t.labels(), 3, query, 1, marked);
      auto detected = scheme.Detect(w, server);
      row.detect_ok = detected.ok() && detected.value() == mark;
    }
  }
  return row;
}

}  // namespace

int main() {
  std::cout << "=== bench_tree_scheme: Theorem 5 on Sigma-trees ===\n";

  Alphabet sigma;
  sigma.Intern("a");
  sigma.Intern("b");
  sigma.Intern("c");
  Dta query = CompileMso(*MustParseFormula("LEQ(u, v) & P_b(v)"), sigma, {"u", "v"})
                  .ValueOrDie()
                  .dta;

  {
    TextTable table("Capacity vs tree size (query: b-labeled descendants of u)");
    table.SetHeader({"|T|", "|W|", "m", "paired", "bits l", "|W|/4m", "max |df|",
                     "detect", "plan ms"});
    Rng rng(5);
    for (size_t n : {300, 1000, 3000, 10000, 30000, 100000}) {
      BinaryTree t = RandomBinaryTree(n, 3, rng);
      bool small = n <= 3000;
      Row r = RunInstance(t, query, n, small, small);
      double shape = static_cast<double>(r.active) / (4.0 * (r.m + 1));
      table.AddRow({StrCat(r.n), StrCat(r.active), StrCat(r.m), StrCat(r.paired),
                    StrCat(r.bits), FmtDouble(shape, 1),
                    small ? StrCat(r.realized) : "(skipped)",
                    small ? (r.detect_ok ? "OK" : "FAIL") : "(skipped)",
                    FmtDouble(r.plan_ms, 1)});
    }
    table.Print(std::cout);
    std::cout << "bits track the |W|/4m shape linearly in |W|; realized "
                 "distortion never exceeds 1 (Theorem 5 with the structural "
                 "pairing guarantee).\n";
  }

  // Automaton-size sweep: richer queries -> larger m -> fewer bits.
  {
    TextTable table("Capacity vs automaton size m (|T| = 4000)");
    table.SetHeader({"query", "m", "paired", "bits l"});
    const char* queries[] = {
        "P_b(v)",
        "LEQ(u, v) & P_b(v)",
        "LEQ(u, v) & P_b(v) & exists w (CHILD(v, w) & P_a(w))",
        "LEQ(u, v) & P_b(v) & exists w (CHILD(v, w) & P_a(w) & ~LEAF(w))",
    };
    Rng rng(6);
    BinaryTree t = RandomBinaryTree(4000, 3, rng);
    for (const char* qtext : queries) {
      FormulaPtr f = MustParseFormula(qtext);
      auto compiled = CompileMso(*f, sigma, {"u", "v"}).ValueOrDie();
      Row r = RunInstance(t, compiled.dta, 99, false, false);
      table.AddRow({qtext, StrCat(r.m), StrCat(r.paired), StrCat(r.bits)});
    }
    table.Print(std::cout);
    std::cout << "the 1/m dependence of Theorem 5: richer automata need larger "
                 "regions per hidden bit.\n";
  }

  // Tree-shape sweep.
  {
    TextTable table("Capacity vs tree shape (|T| = 4000)");
    table.SetHeader({"shape", "paired", "bits l", "detect"});
    Rng rng(7);
    struct Shape {
      const char* name;
      BinaryTree tree;
    };
    std::vector<Shape> shapes;
    shapes.push_back({"random", RandomBinaryTree(4000, 3, rng)});
    shapes.push_back({"chain (depth 4000)", ChainTree(4000, 3)});
    shapes.push_back({"complete", CompleteTree(4000, 3)});
    for (auto& shape : shapes) {
      Row r = RunInstance(shape.tree, query, 11, false, true);
      table.AddRow({shape.name, StrCat(r.paired), StrCat(r.bits),
                    r.detect_ok ? "OK" : "FAIL"});
    }
    table.Print(std::cout);
  }
  return 0;
}
