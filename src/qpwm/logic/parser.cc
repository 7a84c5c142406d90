#include "qpwm/logic/parser.h"

#include <cctype>
#include <string>
#include <vector>

#include "qpwm/util/check.h"
#include "qpwm/util/str.h"
#include "qpwm/util/thread_annotations.h"

namespace qpwm {
namespace {

enum class TokKind { kIdent, kLParen, kRParen, kComma, kEq, kAnd, kOr, kNot, kImpl, kIff, kEnd };

struct Token {
  TokKind kind;
  std::string text;
  size_t pos;
};

class Lexer {
 public:
  explicit Lexer(std::string_view src) : src_(src) {}

  Result<std::vector<Token>> Lex() {
    std::vector<Token> out;
    size_t i = 0;
    while (i < src_.size()) {
      char c = src_[i];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++i;
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t start = i;
        while (i < src_.size() && (std::isalnum(static_cast<unsigned char>(src_[i])) ||
                                   src_[i] == '_' || src_[i] == '\'')) {
          ++i;
        }
        out.push_back({TokKind::kIdent, std::string(src_.substr(start, i - start)), start});
        continue;
      }
      switch (c) {
        case '(': out.push_back({TokKind::kLParen, "(", i}); ++i; break;
        case ')': out.push_back({TokKind::kRParen, ")", i}); ++i; break;
        case ',': out.push_back({TokKind::kComma, ",", i}); ++i; break;
        case '=': out.push_back({TokKind::kEq, "=", i}); ++i; break;
        case '&': out.push_back({TokKind::kAnd, "&", i}); ++i; break;
        case '|': out.push_back({TokKind::kOr, "|", i}); ++i; break;
        case '~': out.push_back({TokKind::kNot, "~", i}); ++i; break;
        case '-':
          if (i + 1 < src_.size() && src_[i + 1] == '>') {
            out.push_back({TokKind::kImpl, "->", i});
            i += 2;
            break;
          }
          return Status::ParseError(StrCat("stray '-' at position ", i));
        case '<':
          if (i + 2 < src_.size() && src_[i + 1] == '-' && src_[i + 2] == '>') {
            out.push_back({TokKind::kIff, "<->", i});
            i += 3;
            break;
          }
          return Status::ParseError(StrCat("stray '<' at position ", i));
        default:
          return Status::ParseError(StrCat("unexpected character '", c, "' at position ", i));
      }
    }
    out.push_back({TokKind::kEnd, "", src_.size()});
    return out;
  }

 private:
  // Views the caller's formula text; Lexer never outlives the ParseFormula
  // call that constructed it.
  std::string_view src_ QPWM_VIEW_OF(caller_text);
};

class Parser {
 public:
  explicit Parser(std::vector<Token> toks) : toks_(std::move(toks)) {}

  Result<FormulaPtr> Parse() {
    auto f = ParseIff();
    if (!f.ok()) return f;
    if (Peek().kind != TokKind::kEnd) {
      return Status::ParseError(StrCat("trailing input at position ", Peek().pos));
    }
    return f;
  }

 private:
  const Token& Peek() const { return toks_[idx_]; }
  Token Take() { return toks_[idx_++]; }
  bool Accept(TokKind k) {
    if (Peek().kind == k) {
      ++idx_;
      return true;
    }
    return false;
  }

  Result<FormulaPtr> ParseIff() {
    // Nodes are only ever added, so the nodes built since `start` are acc's.
    const size_t start = nodes_;
    auto lhs = ParseImpl();
    if (!lhs.ok()) return lhs;
    FormulaPtr acc = std::move(lhs).value();
    while (Accept(TokKind::kIff)) {
      const size_t acc_nodes = nodes_ - start;
      auto rhs = ParseImpl();
      if (!rhs.ok()) return rhs;
      FormulaPtr r = std::move(rhs).value();
      const size_t r_nodes = nodes_ - start - acc_nodes;
      // a <-> b  ==  (~a | b) & (~b | a): copies of both sides, five new nodes.
      if (Status s = Charge(acc_nodes + r_nodes + 5); !s.ok()) return s;
      FormulaPtr fwd = MakeOr(MakeNot(acc->Clone()), r->Clone());
      FormulaPtr bwd = MakeOr(MakeNot(std::move(r)), std::move(acc));
      acc = MakeAnd(std::move(fwd), std::move(bwd));
    }
    return acc;
  }

  /// Holds one nesting level for the life of a recursive step.
  class Nesting {
   public:
    explicit Nesting(size_t& depth) : depth_(depth) { ++depth_; }
    ~Nesting() { --depth_; }
    Nesting(const Nesting&) = delete;
    Nesting& operator=(const Nesting&) = delete;

   private:
    size_t& depth_;
  };

  /// Accounts for `count` more nodes; ParseError past kMaxFormulaNodes.
  Status Charge(size_t count) {
    nodes_ += count;
    if (nodes_ <= kMaxFormulaNodes) return Status::OK();
    return Status::ParseError(StrCat("formula exceeds ", kMaxFormulaNodes,
                                     " nodes at position ", Peek().pos));
  }

  Status TooDeep() const {
    return Status::ParseError(StrCat("nesting depth exceeds limit ", kMaxFormulaDepth,
                                     " at position ", Peek().pos));
  }

  Result<FormulaPtr> ParseImpl() {
    auto lhs = ParseOr();
    if (!lhs.ok()) return lhs;
    if (Accept(TokKind::kImpl)) {
      Nesting nest(depth_);
      if (depth_ > kMaxFormulaDepth) return TooDeep();
      auto rhs = ParseImpl();  // right-associative
      if (!rhs.ok()) return rhs;
      if (Status s = Charge(2); !s.ok()) return s;
      return MakeOr(MakeNot(std::move(lhs).value()), std::move(rhs).value());
    }
    return lhs;
  }

  Result<FormulaPtr> ParseOr() {
    auto lhs = ParseAnd();
    if (!lhs.ok()) return lhs;
    FormulaPtr acc = std::move(lhs).value();
    while (Accept(TokKind::kOr)) {
      auto rhs = ParseAnd();
      if (!rhs.ok()) return rhs;
      if (Status s = Charge(1); !s.ok()) return s;
      acc = MakeOr(std::move(acc), std::move(rhs).value());
    }
    return acc;
  }

  Result<FormulaPtr> ParseAnd() {
    auto lhs = ParseUnary();
    if (!lhs.ok()) return lhs;
    FormulaPtr acc = std::move(lhs).value();
    while (Accept(TokKind::kAnd)) {
      auto rhs = ParseUnary();
      if (!rhs.ok()) return rhs;
      if (Status s = Charge(1); !s.ok()) return s;
      acc = MakeAnd(std::move(acc), std::move(rhs).value());
    }
    return acc;
  }

  Result<FormulaPtr> ParseUnary() {
    // Every `~`, quantifier and parenthesis recurses through here.
    Nesting nest(depth_);
    if (depth_ > kMaxFormulaDepth) return TooDeep();
    if (Accept(TokKind::kNot)) {
      auto inner = ParseUnary();
      if (!inner.ok()) return inner;
      if (Status s = Charge(1); !s.ok()) return s;
      return MakeNot(std::move(inner).value());
    }
    if (Peek().kind == TokKind::kIdent) {
      const std::string& word = Peek().text;
      if (word == "exists" || word == "forall" || word == "existsset" ||
          word == "forallset") {
        Take();
        if (Peek().kind != TokKind::kIdent) {
          return Status::ParseError(
              StrCat("expected variable after quantifier at position ", Peek().pos));
        }
        std::string var = Take().text;
        auto body = ParseUnary();
        if (!body.ok()) return body;
        if (Status s = Charge(1); !s.ok()) return s;
        if (word == "exists") return MakeExists(std::move(var), std::move(body).value());
        if (word == "forall") return MakeForall(std::move(var), std::move(body).value());
        if (word == "existsset") {
          return MakeExistsSet(std::move(var), std::move(body).value());
        }
        return MakeForallSet(std::move(var), std::move(body).value());
      }
    }
    return ParsePrimary();
  }

  Result<FormulaPtr> ParsePrimary() {
    if (Accept(TokKind::kLParen)) {
      auto f = ParseIff();
      if (!f.ok()) return f;
      if (!Accept(TokKind::kRParen)) {
        return Status::ParseError(StrCat("expected ')' at position ", Peek().pos));
      }
      return f;
    }
    if (Peek().kind != TokKind::kIdent) {
      return Status::ParseError(StrCat("expected formula at position ", Peek().pos));
    }
    std::string first = Take().text;
    if (Status s = Charge(1); !s.ok()) return s;

    if (Accept(TokKind::kLParen)) {  // atom R(x, y, ...)
      std::vector<std::string> args;
      if (Peek().kind != TokKind::kRParen) {
        for (;;) {
          if (Peek().kind != TokKind::kIdent) {
            return Status::ParseError(
                StrCat("expected variable in atom at position ", Peek().pos));
          }
          args.push_back(Take().text);
          if (!Accept(TokKind::kComma)) break;
        }
      }
      if (!Accept(TokKind::kRParen)) {
        return Status::ParseError(StrCat("expected ')' at position ", Peek().pos));
      }
      return MakeAtom(std::move(first), std::move(args));
    }
    if (Accept(TokKind::kEq)) {  // x = y
      if (Peek().kind != TokKind::kIdent) {
        return Status::ParseError(StrCat("expected variable after '=' at position ", Peek().pos));
      }
      return MakeEq(std::move(first), Take().text);
    }
    if (Peek().kind == TokKind::kIdent && Peek().text == "in") {  // x in X
      Take();
      if (Peek().kind != TokKind::kIdent) {
        return Status::ParseError(
            StrCat("expected set variable after 'in' at position ", Peek().pos));
      }
      return MakeSetMember(std::move(first), Take().text);
    }
    return Status::ParseError(StrCat("dangling identifier '", first, "'"));
  }

  std::vector<Token> toks_;
  size_t idx_ = 0;
  size_t depth_ = 0;
  size_t nodes_ = 0;  // formula nodes built so far
};

}  // namespace

Result<FormulaPtr> ParseFormula(std::string_view text) {
  auto toks = Lexer(text).Lex();
  if (!toks.ok()) return toks.status();
  return Parser(std::move(toks).value()).Parse();
}

FormulaPtr MustParseFormula(std::string_view text) {
  auto f = ParseFormula(text);
  QPWM_CHECK(f.ok());
  return std::move(f).value();
}

}  // namespace qpwm
