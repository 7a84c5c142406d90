#include "qpwm/xml/xpath.h"

#include <algorithm>
#include <set>

#include "qpwm/util/check.h"
#include "qpwm/util/str.h"

namespace qpwm {
namespace {

// "y is an (unranked) child of x" over the binary encoding. CHILD is the
// compiler's precompiled 3-state atom for
//   exists z (S1(x, z) & S2-chain(z, y));
// the set-quantifier spelling of that closure is MSO-equivalent (tests
// cross-validate the two) but needlessly expensive to determinize.
FormulaPtr ChildFormula(const std::string& x, const std::string& y, int& fresh) {
  (void)fresh;
  return MakeAtom("CHILD", {x, y});
}

// "y is a proper (unranked) descendant of x": in the first-child /
// next-sibling encoding the unranked descendants of x are exactly the
// binary subtree of x's left child, so exists z (S1(x, z) & LEQ(z, y)).
FormulaPtr DescendantFormula(const std::string& x, const std::string& y, int& fresh) {
  std::string z = StrCat("z", fresh++);
  return MakeExists(z, MakeAnd(MakeAtom("S1", {x, z}), MakeAtom("LEQ", {z, y})));
}

FormulaPtr LabelIs(const std::string& var, const std::string& label) {
  return MakeAtom("P_" + label, {var});
}

FormulaPtr False(const std::string& free_var) {
  return MakeAnd(MakeEq(free_var, free_var), MakeNot(MakeEq(free_var, free_var)));
}

}  // namespace

Result<XPathQuery> XPathQuery::Parse(std::string_view text) {
  std::string_view rest = StripWhitespace(text);
  if (!rest.empty() && rest[0] == '/') rest.remove_prefix(1);
  if (rest.empty()) return Status::ParseError("empty XPath");

  XPathQuery out;
  bool pending_descendant = false;
  for (const std::string& raw : Split(rest, '/')) {
    std::string_view step = StripWhitespace(raw);
    if (step.empty()) {
      // An empty segment encodes '//' (descendant axis for the next step).
      if (pending_descendant) return Status::ParseError("empty XPath step");
      pending_descendant = true;
      continue;
    }
    XPathStep s;
    s.descendant_axis = pending_descendant;
    pending_descendant = false;
    size_t bracket = step.find('[');
    if (bracket == std::string_view::npos) {
      s.tag = std::string(step);
    } else {
      if (step.back() != ']') return Status::ParseError("unterminated predicate");
      s.tag = std::string(StripWhitespace(step.substr(0, bracket)));
      std::string_view pred = step.substr(bracket + 1, step.size() - bracket - 2);
      size_t eq = pred.find('=');
      if (eq == std::string_view::npos) {
        return Status::ParseError("predicate must be tag = value");
      }
      s.pred_tag = std::string(StripWhitespace(pred.substr(0, eq)));
      std::string_view value = StripWhitespace(pred.substr(eq + 1));
      if (value.empty()) return Status::ParseError("empty predicate value");
      if (value[0] == '$') {
        s.pred_is_param = true;
      } else {
        if (value.size() >= 2 && (value.front() == '\'' || value.front() == '"') &&
            value.back() == value.front()) {
          value = value.substr(1, value.size() - 2);
        }
        s.pred_literal = std::string(value);
      }
    }
    if (s.tag.empty()) return Status::ParseError("step without tag");
    out.steps_.push_back(std::move(s));
  }
  if (pending_descendant) return Status::ParseError("trailing '/'");
  if (out.steps_.empty()) return Status::ParseError("empty XPath");
  int params = 0;
  for (const auto& s : out.steps_) params += s.pred_is_param ? 1 : 0;
  if (params > 1) {
    return Status::ParseError("at most one $1 parameter is supported");
  }
  return out;
}

bool XPathQuery::has_param() const {
  for (const auto& s : steps_) {
    if (s.pred_is_param) return true;
  }
  return false;
}

Result<FormulaPtr> XPathQuery::ToMso(const EncodedXml& encoded) const {
  QPWM_CHECK(!steps_.empty());
  int fresh = 0;

  // Step variables: x0 .. x_{k-2}, then "v" for the final step.
  // Built by construction, not assignment: assigning a literal into an
  // existing string trips gcc 12's -Wrestrict false positive at -O3.
  std::vector<std::string> step_var;
  step_var.reserve(steps_.size());
  for (size_t i = 0; i + 1 < steps_.size(); ++i) step_var.push_back(StrCat("x", i));
  step_var.emplace_back("v");

  // Constraints, conjoined innermost-out so each exists wraps tightly.
  FormulaPtr body = nullptr;
  auto conjoin = [&](FormulaPtr f) {
    body = body == nullptr ? std::move(f) : MakeAnd(std::move(body), std::move(f));
  };

  // A leading '//' matches the tag anywhere; otherwise step 0 is the root.
  if (!steps_[0].descendant_axis) conjoin(MakeAtom("ROOT", {step_var[0]}));
  for (size_t i = 0; i < steps_.size(); ++i) {
    const XPathStep& s = steps_[i];
    conjoin(LabelIs(step_var[i], s.tag));
    if (i > 0) {
      conjoin(s.descendant_axis
                  ? DescendantFormula(step_var[i - 1], step_var[i], fresh)
                  : ChildFormula(step_var[i - 1], step_var[i], fresh));
    }

    if (s.pred_tag.has_value()) {
      std::string f_var = StrCat("f", fresh++);
      // "f has a text child labeled `label`", with its own tightly scoped
      // exists — keeping each projection over a tiny automaton. (Hoisting
      // one exists over the whole label disjunction is equivalent but makes
      // the subset construction track label sets and blow up.)
      auto has_text_child = [&](const std::string& label) {
        std::string t_var = StrCat("t", fresh++);
        return MakeExists(t_var, MakeAnd(ChildFormula(f_var, t_var, fresh),
                                         LabelIs(t_var, label)));
      };
      FormulaPtr value_test;
      if (s.pred_is_param) {
        // Same label as the parameter's text node: disjunction over the
        // text values observed under <pred_tag> elements, with P_c(u)
        // hoisted out of the per-label exists.
        std::set<std::string> labels;
        for (NodeId node : ParamTreeNodes(encoded)) {
          labels.insert(encoded.sigma.Name(encoded.tree.label(node)));
        }
        for (const std::string& label : labels) {
          FormulaPtr term = MakeAnd(LabelIs("u", label), has_text_child(label));
          value_test = value_test == nullptr
                           ? std::move(term)
                           : MakeOr(std::move(value_test), std::move(term));
        }
        if (value_test == nullptr) value_test = False(f_var);
      } else {
        if (encoded.sigma.Find(*s.pred_literal).ok()) {
          value_test = has_text_child(*s.pred_literal);
        } else {
          value_test = False(f_var);  // literal absent: matches nothing
        }
      }
      FormulaPtr pred = MakeExists(
          f_var, MakeAnd(MakeAnd(ChildFormula(step_var[i], f_var, fresh),
                                 LabelIs(f_var, *s.pred_tag)),
                         std::move(value_test)));
      conjoin(std::move(pred));
    }
  }

  // Existentially close the intermediate step variables (not u, not v).
  for (size_t i = steps_.size() - 1; i-- > 0;) {
    body = MakeExists(step_var[i], std::move(body));
  }
  return body;
}

Result<TrackedDta> XPathQuery::Compile(const EncodedXml& encoded) const {
  auto formula = ToMso(encoded);
  if (!formula.ok()) return formula.status();
  std::vector<std::string> var_order =
      has_param() ? std::vector<std::string>{"u", "v"} : std::vector<std::string>{"v"};
  return CompileMso(*formula.value(), encoded.sigma, var_order);
}

std::vector<XmlNodeId> XPathQuery::EvaluateOnDom(const XmlDocument& doc,
                                                 const std::string& param_value) const {
  auto passes_pred = [&](XmlNodeId id, const XPathStep& s) {
    if (!s.pred_tag.has_value()) return true;
    for (XmlNodeId c : doc.node(id).children) {
      const XmlNode& child = doc.node(c);
      if (child.kind != XmlNode::Kind::kElement || child.tag != *s.pred_tag) continue;
      std::string text = doc.TextContent(c);
      if (s.pred_is_param ? (text == param_value) : (text == *s.pred_literal)) {
        return true;
      }
    }
    return false;
  };
  auto matches = [&](XmlNodeId id, const XPathStep& s) {
    const XmlNode& n = doc.node(id);
    return n.kind == XmlNode::Kind::kElement && n.tag == s.tag && passes_pred(id, s);
  };
  // Collects matching proper descendants of `id` into `out`.
  auto collect_descendants = [&](XmlNodeId id, const XPathStep& s,
                                 std::vector<XmlNodeId>& out) {
    std::vector<XmlNodeId> stack(doc.node(id).children.rbegin(),
                                 doc.node(id).children.rend());
    while (!stack.empty()) {
      XmlNodeId v = stack.back();
      stack.pop_back();
      if (matches(v, s)) out.push_back(v);
      const auto& children = doc.node(v).children;
      stack.insert(stack.end(), children.rbegin(), children.rend());
    }
  };
  auto dedupe = [](std::vector<XmlNodeId>& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  };

  std::vector<XmlNodeId> frontier;
  if (steps_[0].descendant_axis) {
    if (matches(doc.root(), steps_[0])) frontier.push_back(doc.root());
    collect_descendants(doc.root(), steps_[0], frontier);
    dedupe(frontier);
  } else if (matches(doc.root(), steps_[0])) {
    frontier.push_back(doc.root());
  }

  for (size_t i = 1; i < steps_.size(); ++i) {
    std::vector<XmlNodeId> next;
    for (XmlNodeId id : frontier) {
      if (steps_[i].descendant_axis) {
        collect_descendants(id, steps_[i], next);
      } else {
        for (XmlNodeId c : doc.node(id).children) {
          if (matches(c, steps_[i])) next.push_back(c);
        }
      }
    }
    dedupe(next);
    frontier = std::move(next);
  }
  return frontier;
}

std::vector<NodeId> XPathQuery::ParamTreeNodes(const EncodedXml& encoded) const {
  const XPathStep* param_step = nullptr;
  for (const auto& s : steps_) {
    if (s.pred_is_param) param_step = &s;
  }
  std::vector<NodeId> out;
  if (param_step == nullptr) return out;
  auto pred_tag = encoded.sigma.Find(*param_step->pred_tag);
  if (!pred_tag.ok()) return out;

  // Text nodes are left children of their element in the encoding; scan for
  // nodes whose parent chain (first-child edge) starts at a pred-tag node.
  const BinaryTree& t = encoded.tree;
  for (NodeId v = 0; v < t.size(); ++v) {
    if (t.label(v) != pred_tag.value()) continue;
    // Children of v in the unranked sense: left child then right chain.
    // Text nodes have no first child (they may have right siblings).
    for (NodeId c = t.left(v); c != kNoNode; c = t.right(c)) {
      if (t.left(c) == kNoNode) out.push_back(c);
    }
  }
  return out;
}

}  // namespace qpwm
