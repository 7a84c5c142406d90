// Token helpers shared by the lint passes (lexer consumers): rules.cc,
// index.cc and xtu_rules.cc. Header-only; everything is tiny and inline.
#ifndef QPWM_TOOLS_LINT_INTERNAL_H_
#define QPWM_TOOLS_LINT_INTERNAL_H_

#include <algorithm>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "lint.h"

namespace qpwm::lint::internal {

inline constexpr size_t kNpos = static_cast<size_t>(-1);

inline std::string NormalizePath(std::string_view path) {
  std::string out(path);
  std::replace(out.begin(), out.end(), '\\', '/');
  return out;
}

inline bool PathHas(const std::string& path, std::string_view needle) {
  return path.find(needle) != std::string::npos;
}

inline bool IsHeader(const std::string& path) {
  return path.size() > 2 && path.compare(path.size() - 2, 2, ".h") == 0;
}

inline bool Is(const std::vector<Token>& t, size_t i, std::string_view text) {
  return i < t.size() && t[i].text == text;
}

inline bool IsIdent(const std::vector<Token>& t, size_t i) {
  return i < t.size() && t[i].kind == Token::Kind::kIdent;
}

// i at `<`: returns the index just past the matching `>`, or kNpos if the
// angle run hits a statement boundary first (then it was a comparison).
inline size_t SkipAngles(const std::vector<Token>& t, size_t i) {
  int depth = 0;
  for (; i < t.size(); ++i) {
    const std::string& x = t[i].text;
    if (x == ";" || x == "{" || x == "}") return kNpos;
    if (x == "<") ++depth;
    else if (x == "<<") depth += 2;
    else if (x == ">") --depth;
    else if (x == ">>") depth -= 2;
    if (depth <= 0 && (x == ">" || x == ">>")) return i + 1;
  }
  return kNpos;
}

// i at `(` (or `[`, `{`): returns the index just past the matching closer.
inline size_t SkipBalanced(const std::vector<Token>& t, size_t i) {
  int depth = 0;
  for (; i < t.size(); ++i) {
    const std::string& x = t[i].text;
    if (x == "(" || x == "[" || x == "{") ++depth;
    else if (x == ")" || x == "]" || x == "}") {
      if (--depth == 0) return i + 1;
    }
  }
  return kNpos;
}

inline bool IsKeyword(const std::string& s) {
  static const std::set<std::string> kKeywords = {
      "if",       "else",    "for",      "while",   "do",        "switch",
      "case",     "default", "break",    "continue", "return",   "goto",
      "new",      "delete",  "using",    "namespace", "template", "typedef",
      "typename", "class",   "struct",   "enum",    "union",     "public",
      "private",  "protected", "static_assert", "sizeof", "alignof",
      "co_await", "co_return", "co_yield", "try",   "catch",     "operator",
      "const",    "constexpr", "static",  "inline", "virtual",   "explicit",
      "friend",   "extern",  "mutable",  "auto",    "void",      "this"};
  return kKeywords.count(s) > 0;
}

// Specifiers that may sit between a declaration boundary and the return type.
inline bool IsDeclSpecifier(const std::string& s) {
  return s == "static" || s == "virtual" || s == "inline" || s == "constexpr" ||
         s == "explicit" || s == "friend" || s == "extern";
}

// Thread-annotation macros that take a parenthesized argument list and may
// trail a member or function declarator.
inline bool IsAnnotationMacro(const std::string& s) {
  return s == "QPWM_GUARDED_BY" || s == "QPWM_PT_GUARDED_BY" ||
         s == "QPWM_VIEW_OF" || s == "QPWM_REQUIRES" || s == "QPWM_ACQUIRE" ||
         s == "QPWM_RELEASE" || s == "QPWM_TRY_ACQUIRE" ||
         s == "QPWM_EXCLUDES" || s == "QPWM_CAPABILITY";
}

// Files where a rule's banned construct is the sanctioned implementation.
inline bool RuleAllowsFile(std::string_view rule, const std::string& path) {
  if (rule == kRawStatus) return PathHas(path, "util/status.h");
  if (rule == kBareAbort) {
    return PathHas(path, "util/check.h") || PathHas(path, "util/status");
  }
  if (rule == kNondeterministicRandom) return PathHas(path, "util/random");
  if (rule == kParallelMutation) return PathHas(path, "util/parallel");
  if (rule == kLegacyTupleVector) return PathHas(path, "qpwm/structure/");
  return false;
}

inline void Report(const FileScan& scan, int line, const char* rule,
                   std::string message, std::vector<Finding>& out) {
  // allow() on the finding's line or the line just above waives it.
  for (int l : {line, line - 1}) {
    auto it = scan.allows.find(l);
    if (it != scan.allows.end() && it->second.count(rule)) return;
  }
  if (RuleAllowsFile(rule, scan.path)) return;
  out.push_back(Finding{scan.path, line, rule, std::move(message)});
}

// --- Cross-TU rule families (xtu_rules.cc) ----------------------------------
// All three consume the per-file symbols (fresh spans into `scan`) plus the
// finalized merged context.

void CheckViewEscape(const FileScan& scan, const FileSymbols& syms,
                     const LintContext& ctx, std::vector<Finding>& out);
void CheckLockDiscipline(const FileScan& scan, const FileSymbols& syms,
                         const LintContext& ctx, std::vector<Finding>& out);
void CheckXtuDiscardedStatus(const FileScan& scan, const FileSymbols& syms,
                             const LintContext& ctx,
                             std::vector<Finding>& out);

}  // namespace qpwm::lint::internal

#endif  // QPWM_TOOLS_LINT_INTERNAL_H_
