// The paper's Example 4: watermarking an XML school document while
// preserving the parametric XPath query
//
//   school/student[firstname=$1]/exam
//
// End to end: parse XML -> first-child/next-sibling binary encoding ->
// XPath -> MSO -> tree automaton (Lemma 2) -> Lemma 3 regions -> marked XML.
//
//   $ ./xml_school
#include <iostream>

#include "qpwm/core/tree_scheme.h"
#include "qpwm/tree/query.h"
#include "qpwm/util/random.h"
#include "qpwm/util/str.h"
#include "qpwm/util/table.h"
#include "qpwm/xml/parser.h"
#include "qpwm/xml/xpath.h"

int main() {
  using namespace qpwm;

  // 1. The owner's document (Example 4) and the registered query.
  XmlDocument doc = SchoolExampleDocument();
  EncodedXml encoded = EncodeXml(doc, {"exam"}).ValueOrDie();
  XPathQuery query =
      XPathQuery::Parse("school/student[firstname=$1]/exam").ValueOrDie();
  TrackedDta compiled = query.Compile(encoded).ValueOrDie();
  const auto base = static_cast<uint32_t>(encoded.sigma.size());
  std::cout << "document: " << encoded.tree.size() << " tree nodes, alphabet "
            << encoded.sigma.size() << "; query automaton "
            << compiled.dta.num_states() << " states\n";

  // 2. The paper's f(Robert) = 28 on the original document.
  TextTable before("f values on the original document");
  before.SetHeader({"firstname", "f = sum of exams"});
  const TreeQuery tree_query = TreeQuery::Compile(compiled.dta, base, 1).ValueOrDie();
  const TreeLayout layout =
      TreeLayout::Build(encoded.tree, encoded.tree.labels(), base).ValueOrDie();
  for (NodeId p : query.ParamTreeNodes(encoded)) {
    Weight f = 0;
    for (NodeId b : EvaluateWa(layout, tree_query, p)) {
      f += encoded.weights.GetElem(b);
    }
    before.AddRow({encoded.sigma.Name(encoded.tree.label(p)), StrCat(f)});
  }
  before.Print(std::cout);

  // 3. A larger school: embed a real mark.
  Rng rng(2026);
  XmlDocument big = RandomSchoolDocument(200, rng, 0, 20, 2);
  EncodedXml big_enc = EncodeXml(big, {"exam"}).ValueOrDie();
  TrackedDta big_query = query.Compile(big_enc).ValueOrDie();
  const auto big_base = static_cast<uint32_t>(big_enc.sigma.size());

  TreeSchemeOptions options;
  options.key = {0x5C400L, 0xE4A};
  TreeScheme scheme = TreeScheme::Plan(big_enc.tree, big_enc.tree.labels(),
                                       big_base, big_query.dta, 1, options)
                          .ValueOrDie();
  std::cout << "\n200-student school: " << scheme.RegionsPaired()
            << " mark regions, capacity " << scheme.CapacityBits()
            << " bits, guaranteed distortion <= " << scheme.DistortionBound()
            << " on every f(firstname)\n";

  BitVec mark(scheme.CapacityBits());
  for (size_t i = 0; i < mark.size(); ++i) mark.Set(i, rng.Coin());
  WeightMap marked = scheme.Embed(big_enc.weights, mark);

  // 4. Produce the watermarked XML the data server will publish.
  XmlDocument marked_doc = ApplyWeights(big, big_enc, marked);
  std::cout << "marked XML differs in "
            << [&] {
                 size_t diff = 0;
                 for (NodeId v = 0; v < big_enc.tree.size(); ++v) {
                   diff += big_enc.weights.GetElem(v) != marked.GetElem(v);
                 }
                 return diff;
               }()
            << " exam value(s), each by exactly 1 point\n";

  // 5. Detection through answers only.
  HonestTreeServer suspect(big_enc.tree, big_enc.tree.labels(), big_base,
                           big_query.dta, 1, marked);
  BitVec detected = scheme.Detect(big_enc.weights, suspect).ValueOrDie();
  std::cout << "detected " << (detected == mark ? "the embedded mark" : "NOTHING")
            << " (" << detected.ToString().substr(0, 32)
            << (detected.size() > 32 ? "..." : "") << ")\n";

  // 6. Show a watermarked snippet.
  std::cout << "\nFirst lines of the watermarked document:\n";
  std::string serialized = SerializeXml(marked_doc);
  std::cout << serialized.substr(0, 420) << "...\n";
  return detected == mark ? 0 : 1;
}
