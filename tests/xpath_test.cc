#include <gtest/gtest.h>

#include <algorithm>

#include "qpwm/tree/query.h"
#include "qpwm/util/random.h"
#include "qpwm/xml/parser.h"
#include "qpwm/xml/xpath.h"

namespace qpwm {
namespace {

TEST(XPathParseTest, PlainSteps) {
  auto q = XPathQuery::Parse("/school/student/exam").ValueOrDie();
  ASSERT_EQ(q.steps().size(), 3u);
  EXPECT_EQ(q.steps()[0].tag, "school");
  EXPECT_EQ(q.steps()[2].tag, "exam");
  EXPECT_FALSE(q.has_param());
}

TEST(XPathParseTest, ParamPredicate) {
  auto q = XPathQuery::Parse("school/student[firstname=$1]/exam").ValueOrDie();
  ASSERT_EQ(q.steps().size(), 3u);
  EXPECT_EQ(q.steps()[1].pred_tag.value(), "firstname");
  EXPECT_TRUE(q.steps()[1].pred_is_param);
  EXPECT_TRUE(q.has_param());
}

TEST(XPathParseTest, LiteralPredicate) {
  auto q = XPathQuery::Parse("school/student[firstname='John']/exam").ValueOrDie();
  EXPECT_EQ(q.steps()[1].pred_literal.value(), "John");
  EXPECT_FALSE(q.has_param());
}

TEST(XPathParseTest, BareLiteral) {
  auto q = XPathQuery::Parse("a/b[c=John]").ValueOrDie();
  EXPECT_EQ(q.steps()[1].pred_literal.value(), "John");
}

TEST(XPathParseTest, Errors) {
  EXPECT_FALSE(XPathQuery::Parse("").ok());
  EXPECT_FALSE(XPathQuery::Parse("a///b").ok());
  EXPECT_FALSE(XPathQuery::Parse("a/b/").ok());
  EXPECT_FALSE(XPathQuery::Parse("a/b[c]").ok());
  EXPECT_FALSE(XPathQuery::Parse("a/b[c=$1").ok());
  EXPECT_FALSE(XPathQuery::Parse("a[x=$1]/b[y=$1]").ok());  // two params
}

TEST(XPathParseTest, DescendantAxis) {
  auto q = XPathQuery::Parse("school//exam").ValueOrDie();
  ASSERT_EQ(q.steps().size(), 2u);
  EXPECT_FALSE(q.steps()[0].descendant_axis);
  EXPECT_TRUE(q.steps()[1].descendant_axis);

  auto anywhere = XPathQuery::Parse("//exam").ValueOrDie();
  ASSERT_EQ(anywhere.steps().size(), 1u);
  EXPECT_TRUE(anywhere.steps()[0].descendant_axis);
}

TEST(XPathDomTest, DescendantAxisSkipsLevels) {
  XmlDocument doc = MustParseXml(
      "<a><b><c>1</c></b><c>2</c><d><e><c>3</c></e></d></a>");
  auto q = XPathQuery::Parse("a//c").ValueOrDie();
  EXPECT_EQ(q.EvaluateOnDom(doc, "").size(), 3u);
  auto direct = XPathQuery::Parse("a/c").ValueOrDie();
  EXPECT_EQ(direct.EvaluateOnDom(doc, "").size(), 1u);
  auto anywhere = XPathQuery::Parse("//c").ValueOrDie();
  EXPECT_EQ(anywhere.EvaluateOnDom(doc, "").size(), 3u);
}

TEST(XPathDomTest, LeadingDescendantMatchesRootToo) {
  XmlDocument doc = MustParseXml("<c><c>1</c></c>");
  auto q = XPathQuery::Parse("//c").ValueOrDie();
  EXPECT_EQ(q.EvaluateOnDom(doc, "").size(), 2u);
}

TEST(XPathDomTest, SchoolExample) {
  XmlDocument doc = SchoolExampleDocument();
  auto q = XPathQuery::Parse("school/student[firstname=$1]/exam").ValueOrDie();
  auto roberts = q.EvaluateOnDom(doc, "Robert");
  ASSERT_EQ(roberts.size(), 2u);
  Weight f = 0;
  for (XmlNodeId id : roberts) f += std::stoll(doc.TextContent(id));
  EXPECT_EQ(f, 28);  // the paper's f(Robert) = 16 + 12
  EXPECT_EQ(q.EvaluateOnDom(doc, "John").size(), 1u);
  EXPECT_EQ(q.EvaluateOnDom(doc, "Nobody").size(), 0u);
}

TEST(XPathDomTest, LiteralPredicateFilters) {
  XmlDocument doc = SchoolExampleDocument();
  auto q = XPathQuery::Parse("school/student[lastname='Smith']/exam").ValueOrDie();
  auto hits = q.EvaluateOnDom(doc, "");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(doc.TextContent(hits[0]), "12");
}

TEST(XPathDomTest, RootTagMustMatch) {
  XmlDocument doc = SchoolExampleDocument();
  auto q = XPathQuery::Parse("university/student/exam").ValueOrDie();
  EXPECT_TRUE(q.EvaluateOnDom(doc, "").empty());
}

class XPathAutomatonTest : public ::testing::Test {
 protected:
  // Checks automaton evaluation against DOM semantics for every parameter
  // text node.
  void CrossValidate(const XmlDocument& doc, const std::string& xpath) {
    auto q = XPathQuery::Parse(xpath).ValueOrDie();
    auto enc = EncodeXml(doc, {"exam"}).ValueOrDie();
    auto compiled = q.Compile(enc);
    ASSERT_TRUE(compiled.ok()) << compiled.status();
    const auto base = static_cast<uint32_t>(enc.sigma.size());
    const TreeQuery query =
        TreeQuery::Compile(compiled.value().dta, base, q.has_param() ? 1 : 0).ValueOrDie();
    const TreeLayout layout = TreeLayout::Build(enc.tree, enc.tree.labels(), base).ValueOrDie();

    if (!q.has_param()) {
      auto w = EvaluateWa(layout, query, 0);
      auto dom = q.EvaluateOnDom(doc, "");
      ASSERT_EQ(w.size(), dom.size());
      for (NodeId b : w) {
        XmlNodeId xml = enc.tree_to_xml[b];
        EXPECT_TRUE(std::find(dom.begin(), dom.end(), xml) != dom.end());
      }
      return;
    }

    auto params = q.ParamTreeNodes(enc);
    ASSERT_FALSE(params.empty());
    for (NodeId p : params) {
      const std::string& value = enc.sigma.Name(enc.tree.label(p));
      auto w = EvaluateWa(layout, query, p);
      auto dom = q.EvaluateOnDom(doc, value);
      ASSERT_EQ(w.size(), dom.size()) << "param " << value;
      for (NodeId b : w) {
        XmlNodeId xml = enc.tree_to_xml[b];
        EXPECT_TRUE(std::find(dom.begin(), dom.end(), xml) != dom.end());
      }
    }
  }
};

TEST_F(XPathAutomatonTest, SchoolParamQuery) {
  CrossValidate(SchoolExampleDocument(), "school/student[firstname=$1]/exam");
}

TEST_F(XPathAutomatonTest, SchoolLiteralQuery) {
  CrossValidate(SchoolExampleDocument(), "school/student[firstname='Robert']/exam");
}

TEST_F(XPathAutomatonTest, SchoolPlainQuery) {
  CrossValidate(SchoolExampleDocument(), "school/student/exam");
}

TEST_F(XPathAutomatonTest, AbsentLiteralMatchesNothing) {
  CrossValidate(SchoolExampleDocument(), "school/student[firstname='Zork']/exam");
}

TEST_F(XPathAutomatonTest, DescendantAxisQuery) {
  CrossValidate(SchoolExampleDocument(), "school//exam");
}

TEST_F(XPathAutomatonTest, AnywhereQuery) {
  CrossValidate(SchoolExampleDocument(), "//exam");
}

TEST_F(XPathAutomatonTest, DescendantWithParam) {
  CrossValidate(SchoolExampleDocument(), "school//student[firstname=$1]/exam");
}

TEST_F(XPathAutomatonTest, RandomDocs) {
  Rng rng(41);
  for (int trial = 0; trial < 3; ++trial) {
    XmlDocument doc = RandomSchoolDocument(8 + rng.Below(10), rng, 0, 20, 2);
    CrossValidate(doc, "school/student[firstname=$1]/exam");
  }
}

TEST(XPathParamNodesTest, FindsTextNodes) {
  XmlDocument doc = SchoolExampleDocument();
  auto q = XPathQuery::Parse("school/student[firstname=$1]/exam").ValueOrDie();
  auto enc = EncodeXml(doc, {"exam"}).ValueOrDie();
  auto params = q.ParamTreeNodes(enc);
  EXPECT_EQ(params.size(), 3u);  // one firstname text node per student
  for (NodeId p : params) {
    const std::string& name = enc.sigma.Name(enc.tree.label(p));
    EXPECT_TRUE(name == "John" || name == "Robert");
  }
}

}  // namespace
}  // namespace qpwm
