// E8 — Theorem 4 on XML (Example 4 scaled): the XPath query
// school/student[firstname=$1]/exam compiled through MSO into a tree
// automaton, then watermarked with the tree scheme. Reports f(Robert)
// distortion (the paper's Example 4 shows distortion 1), capacity vs
// student count, and the automaton-size dependence on the value domain
// (name-pool size) — the inherent exponential of MSO compilation.
#include <chrono>
#include <iostream>

#include "qpwm/core/tree_scheme.h"
#include "qpwm/tree/query.h"
#include "qpwm/util/random.h"
#include "qpwm/util/str.h"
#include "qpwm/util/table.h"
#include "qpwm/xml/parser.h"
#include "qpwm/xml/xpath.h"

using namespace qpwm;
using Clock = std::chrono::steady_clock;

int main() {
  std::cout << "=== bench_xml_mso: Theorem 4 on XML documents ===\n";

  XPathQuery query =
      XPathQuery::Parse("school/student[firstname=$1]/exam").ValueOrDie();

  // Example 4 verbatim.
  {
    XmlDocument doc = SchoolExampleDocument();
    EncodedXml enc = EncodeXml(doc, {"exam"}).ValueOrDie();
    auto compiled = query.Compile(enc).ValueOrDie();
    const auto base = static_cast<uint32_t>(enc.sigma.size());

    TextTable table("Example 4: f values and a 1-local distortion");
    table.SetHeader({"firstname", "f original", "f marked", "|df|"});

    TreeSchemeOptions opts;
    opts.key = {4, 4};
    auto scheme =
        TreeScheme::Plan(enc.tree, enc.tree.labels(), base, compiled.dta, 1, opts)
            .ValueOrDie();
    WeightMap marked = enc.weights;
    if (scheme.CapacityBits() > 0) {
      BitVec mark(scheme.CapacityBits(), true);
      marked = scheme.Embed(enc.weights, mark);
    }
    const TreeQuery tree_query = TreeQuery::Compile(compiled.dta, base, 1).ValueOrDie();
    const TreeLayout layout =
        TreeLayout::Build(enc.tree, enc.tree.labels(), base).ValueOrDie();
    for (NodeId p : query.ParamTreeNodes(enc)) {
      Weight f0 = 0, f1 = 0;
      for (NodeId b : EvaluateWa(layout, tree_query, p)) {
        f0 += enc.weights.GetElem(b);
        f1 += marked.GetElem(b);
      }
      table.AddRow({enc.sigma.Name(enc.tree.label(p)), StrCat(f0), StrCat(f1),
                    StrCat(std::abs(f1 - f0))});
    }
    table.Print(std::cout);
    std::cout << "paper's Example 4: f(Robert) = 28 originally, distortion 1 "
                 "after marking.\n";
  }

  // Scaling with student count (fixed 2-name pool).
  {
    TextTable table("Capacity vs school size (2-name pool)");
    table.SetHeader({"students", "tree nodes", "m", "bits l", "max |df| over params",
                     "detect", "plan ms"});
    Rng rng(8);
    for (size_t students : {50, 200, 800, 3200}) {
      XmlDocument doc = RandomSchoolDocument(students, rng, 0, 20, 2);
      EncodedXml enc = EncodeXml(doc, {"exam"}).ValueOrDie();
      auto compiled = query.Compile(enc).ValueOrDie();
      const auto base = static_cast<uint32_t>(enc.sigma.size());

      TreeSchemeOptions opts;
      opts.key = {students, 1};
      auto t0 = Clock::now();
      auto scheme = TreeScheme::Plan(enc.tree, enc.tree.labels(), base,
                                     compiled.dta, 1, opts)
                        .ValueOrDie();
      auto t1 = Clock::now();

      BitVec mark(scheme.CapacityBits());
      for (size_t i = 0; i < mark.size(); ++i) mark.Set(i, rng.Coin());
      WeightMap marked = scheme.Embed(enc.weights, mark);

      Weight worst = 0;
      bool detect_ok = true;
      if (students <= 800) {
        const TreeQuery tree_query = TreeQuery::Compile(compiled.dta, base, 1).ValueOrDie();
        const TreeLayout layout =
            TreeLayout::Build(enc.tree, enc.tree.labels(), base).ValueOrDie();
        for (NodeId p : query.ParamTreeNodes(enc)) {
          Weight f0 = 0, f1 = 0;
          for (NodeId b : EvaluateWa(layout, tree_query, p)) {
            f0 += enc.weights.GetElem(b);
            f1 += marked.GetElem(b);
          }
          worst = std::max(worst, std::abs(f1 - f0));
        }
        HonestTreeServer server(enc.tree, enc.tree.labels(), base, compiled.dta, 1,
                                marked);
        auto detected = scheme.Detect(enc.weights, server);
        detect_ok = detected.ok() && detected.value() == mark;
      }
      table.AddRow({StrCat(students), StrCat(enc.tree.size()),
                    StrCat(compiled.dta.num_states()), StrCat(scheme.CapacityBits()),
                    students <= 800 ? StrCat(worst) : "(skipped)",
                    students <= 800 ? (detect_ok ? "OK" : "FAIL") : "(skipped)",
                    FmtDouble(std::chrono::duration<double, std::milli>(t1 - t0)
                                  .count(),
                              1)});
    }
    table.Print(std::cout);
  }

  // Automaton size vs value-domain size (the MSO compilation exponential).
  {
    TextTable table("Query automaton vs firstname pool size (100 students)");
    table.SetHeader({"name pool", "alphabet", "automaton states", "compile ms"});
    Rng rng(9);
    for (size_t pool : {1, 2, 3}) {
      XmlDocument doc = RandomSchoolDocument(100, rng, 0, 20, pool);
      EncodedXml enc = EncodeXml(doc, {"exam"}).ValueOrDie();
      auto t0 = Clock::now();
      auto compiled = query.Compile(enc).ValueOrDie();
      auto t1 = Clock::now();
      table.AddRow({StrCat(pool), StrCat(enc.sigma.size()),
                    StrCat(compiled.dta.num_states()),
                    FmtDouble(std::chrono::duration<double, std::milli>(t1 - t0)
                                  .count(),
                              1)});
    }
    table.Print(std::cout);
    std::cout << "the compiled automaton must distinguish parameter values, so "
                 "its size grows with the value domain — the non-elementary "
                 "cost Lemma 2 hides is real.\n";
  }
  return 0;
}
