// Pass 1 of qpwm_lint: the project symbol index.
//
// CollectFileSymbols walks one file's token stream with an explicit scope
// stack (namespace / class / function / block) and extracts:
//   - Status/Result-returning API names and unordered-container variable
//     names (shared with the classic per-file rules),
//   - classes with their data members and QPWM_GUARDED_BY / QPWM_VIEW_OF /
//     QPWM_VIEW_TYPE annotations,
//   - functions and methods with parameter/body token spans and
//     QPWM_REQUIRES sets.
//
// MergeSymbols folds per-file symbols into the shared LintContext;
// FinalizeContext closes the index (builtin view types).
#include "internal.h"
#include "lint.h"

namespace qpwm::lint {
namespace {

using namespace qpwm::lint::internal;

bool StartsWithQpwmMacro(const std::string& s) {
  return s.rfind("QPWM_", 0) == 0;
}

// Matches `Status Name(` / `Result<...> Name(` and returns the index of the
// function-name token, or kNpos. `i` is the index of the type token.
size_t MatchStatusApi(const std::vector<Token>& t, size_t i) {
  size_t j;
  if (t[i].text == "Status") {
    j = i + 1;
  } else if (t[i].text == "Result" && Is(t, i + 1, "<")) {
    j = SkipAngles(t, i + 1);
    if (j == kNpos) return kNpos;
  } else {
    return kNpos;
  }
  if (!IsIdent(t, j) || IsKeyword(t[j].text)) return kNpos;
  if (!Is(t, j + 1, "(")) return kNpos;
  return j;
}

bool IsUnorderedType(const std::string& s) {
  return s == "unordered_map" || s == "unordered_set" ||
         s == "unordered_multimap" || s == "unordered_multiset";
}

// Status-API names and unordered-container variable names (the facts the
// classic discarded-status / unordered-iter rules consume).
void CollectNameFacts(const FileScan& scan, FileSymbols& out) {
  const std::vector<Token>& t = scan.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (!IsIdent(t, i)) continue;
    if (t[i].text == "Status" || t[i].text == "Result") {
      // A return type is never preceded by `.` or `->` (those are calls).
      if (i > 0 && (t[i - 1].text == "." || t[i - 1].text == "->")) continue;
      const size_t name = MatchStatusApi(t, i);
      if (name != kNpos) out.status_apis.insert(t[name].text);
      continue;
    }
    // Unordered-typed variable/member names: after the template argument
    // list, an identifier (possibly behind &/*/const) declares it. The close
    // must be exact — in `vector<unordered_set<...>>` the `>>` also closes
    // the vector, so the following identifier names an ordered container.
    if (IsUnorderedType(t[i].text) && Is(t, i + 1, "<")) {
      int depth = 0;
      size_t j = i + 1;
      bool exact = false;
      for (; j < t.size(); ++j) {
        const std::string& x = t[j].text;
        if (x == ";" || x == "{" || x == "}") break;
        if (x == "<") ++depth;
        else if (x == "<<") depth += 2;
        else if (x == ">" || x == ">>") {
          const int closes = x == ">" ? 1 : 2;
          exact = depth == closes;
          depth -= closes;
          if (depth <= 0) {
            ++j;
            break;
          }
        }
      }
      if (!exact) continue;
      while (j < t.size() &&
             (t[j].text == "&" || t[j].text == "*" || t[j].text == "const")) {
        ++j;
      }
      if (IsIdent(t, j) && !IsKeyword(t[j].text)) {
        out.unordered_names.insert(t[j].text);
      }
    }
  }
}

// --- Structural scan ---------------------------------------------------------

struct Scope {
  enum Kind { kNamespace, kClass, kFunction, kBlock, kOpaque };
  Kind kind;
  size_t sym = kNpos;  // classes/functions index for kClass/kFunction
};

// Tokens that may legally precede the start of a declarator at class or
// namespace scope. Rejecting everything else keeps call expressions,
// initializers and operator chains from being misread as functions.
bool DeclaratorBoundary(const std::vector<Token>& t, size_t k) {
  if (k == 0) return true;
  const Token& p = t[k - 1];
  if (p.kind == Token::Kind::kAttr) return true;
  const std::string& x = p.text;
  if (x == ";" || x == "{" || x == "}" || x == "&" || x == "*" || x == ">" ||
      x == ">>") {
    return true;
  }
  if (x == ":") {  // only the access-specifier colon
    return k >= 2 && (t[k - 2].text == "public" || t[k - 2].text == "private" ||
                      t[k - 2].text == "protected");
  }
  if (p.kind == Token::Kind::kIdent) {
    static const std::set<std::string> kNeverType = {
        "return",    "new",      "delete", "else", "do",       "case",
        "goto",      "throw",    "break",  "continue", "co_return",
        "co_yield",  "operator", "using",  "namespace", "typedef"};
    return kNeverType.count(x) == 0;
  }
  return false;
}

// Leading return-type tokens, walking back from the declarator start.
std::vector<std::string> ReturnTokens(const std::vector<Token>& t, size_t ds) {
  std::vector<std::string> rev;
  size_t k = ds;
  while (k > 0 && rev.size() < 16) {
    const Token& p = t[k - 1];
    const std::string& x = p.text;
    const bool type_like =
        (p.kind == Token::Kind::kIdent && !IsDeclSpecifier(x) &&
         x != "return" && x != "new" && x != "typedef" && x != "using") ||
        x == "::" || x == "<" || x == ">" || x == ">>" || x == "&" ||
        x == "*" || x == ",";
    if (!type_like) break;
    rev.push_back(x);
    --k;
  }
  return std::vector<std::string>(rev.rbegin(), rev.rend());
}

void CollectIdentsInParens(const std::vector<Token>& t, size_t open,
                           size_t close, std::set<std::string>& out) {
  for (size_t j = open + 1; j + 1 < close; ++j) {
    if (IsIdent(t, j) && !IsKeyword(t[j].text)) out.insert(t[j].text);
  }
}

std::string LastIdentInParens(const std::vector<Token>& t, size_t open,
                              size_t close) {
  std::string last;
  for (size_t j = open + 1; j + 1 < close; ++j) {
    if (IsIdent(t, j)) last = t[j].text;
  }
  return last;
}

// After the parameter list of a detected function: walk const/noexcept/
// override/QPWM_* suffixes, a ctor init list, `= default|delete|0`, down to
// the body `{` or the terminating `;`. Fills requires/body and returns the
// index the main walk should resume at (the `{` or `;`, or kNpos on a
// mis-parse).
size_t WalkFunctionSuffix(const std::vector<Token>& t, size_t j,
                          FunctionSym& fn) {
  bool in_init = false;
  while (j < t.size()) {
    const std::string& x = t[j].text;
    if (t[j].kind == Token::Kind::kAttr) {
      ++j;
      continue;
    }
    if (x == "QPWM_REQUIRES" && Is(t, j + 1, "(")) {
      const size_t close = SkipBalanced(t, j + 1);
      if (close == kNpos) return kNpos;
      CollectIdentsInParens(t, j + 1, close, fn.requires_mutexes);
      j = close;
      continue;
    }
    if (StartsWithQpwmMacro(x) && Is(t, j + 1, "(")) {
      j = SkipBalanced(t, j + 1);
      if (j == kNpos) return kNpos;
      continue;
    }
    if (x == "(") {  // noexcept(...), attribute args, init-list entries
      j = SkipBalanced(t, j);
      if (j == kNpos) return kNpos;
      continue;
    }
    if (x == ";") return j;  // declaration only
    if (x == "=") {          // = default / = delete / = 0
      while (j < t.size() && t[j].text != ";") ++j;
      return j < t.size() ? j : kNpos;
    }
    if (x == ":" && !in_init) {
      in_init = true;
      ++j;
      continue;
    }
    if (x == "{") {
      const std::string& prev = t[j - 1].text;
      if (in_init && prev != ")" && prev != "}") {
        // member brace-init inside the ctor init list: `: data_{n}`
        j = SkipBalanced(t, j);
        if (j == kNpos) return kNpos;
        continue;
      }
      fn.body_begin = j;
      return j;
    }
    if (x == "}" || x == ")") return kNpos;  // escaped the declaration
    ++j;
  }
  return kNpos;
}

// Parses the data members of one class body span (members of nested classes
// are parsed when the nested class itself is visited).
void ParseClassMembers(const FileScan& scan, size_t body_begin, size_t body_end,
                       ClassSym& cls) {
  const std::vector<Token>& t = scan.tokens;
  size_t i = body_begin + 1;
  while (i < body_end) {
    const std::string& x = t[i].text;
    if (x == ";") {
      ++i;
      continue;
    }
    if ((x == "public" || x == "private" || x == "protected") &&
        Is(t, i + 1, ":")) {
      i += 2;
      continue;
    }
    if (x == "template" && Is(t, i + 1, "<")) {
      const size_t j = SkipAngles(t, i + 1);
      i = j == kNpos ? i + 1 : j;
      continue;
    }
    if (x == "class" || x == "struct" || x == "enum" || x == "union") {
      // Nested type: skip its body; a trailing declarator names a member.
      size_t j = i + 1;
      while (j < body_end && t[j].text != "{" && t[j].text != ";") {
        if (t[j].text == "(") {
          const size_t c = SkipBalanced(t, j);
          if (c == kNpos) break;
          j = c;
          continue;
        }
        ++j;
      }
      if (j < body_end && t[j].text == "{") {
        const size_t after = SkipBalanced(t, j);
        if (after == kNpos) break;
        j = after;
        if (IsIdent(t, j) && !IsKeyword(t[j].text)) {
          MemberSym m;
          m.name = t[j].text;
          m.type = "struct";
          m.line = t[j].line;
          cls.members.push_back(std::move(m));
        }
        while (j < body_end && t[j].text != ";") ++j;
      }
      i = j + 1;
      continue;
    }
    // General statement scan. `sig` records the top-level token indices
    // (annotation-macro arguments and skipped regions excluded) so the
    // declarator name can be found even with a trailing annotation.
    std::vector<size_t> sig;
    bool has_fn_paren = false, saw_eq = false, fn_like = false;
    bool view_of = false;
    std::string guarded;
    size_t j = i;
    while (j < body_end) {
      const std::string& xx = t[j].text;
      if (StartsWithQpwmMacro(xx) && Is(t, j + 1, "(")) {
        const size_t close = SkipBalanced(t, j + 1);
        if (close == kNpos) {
          j = body_end;
          break;
        }
        if (xx == "QPWM_GUARDED_BY" || xx == "QPWM_PT_GUARDED_BY") {
          guarded = LastIdentInParens(t, j + 1, close);
        } else if (xx == "QPWM_VIEW_OF") {
          view_of = true;
        }
        j = close;
        continue;
      }
      if (xx == "(") {
        if (!saw_eq && j > i && IsIdent(t, j - 1) && !IsKeyword(t[j - 1].text)) {
          has_fn_paren = true;
        }
        sig.push_back(j);
        const size_t c = SkipBalanced(t, j);
        if (c == kNpos) {
          j = body_end;
          break;
        }
        j = c;
        continue;
      }
      if (xx == "<") {
        const size_t c = SkipAngles(t, j);
        if (c != kNpos && c <= body_end) {
          j = c;
          continue;
        }
        sig.push_back(j);
        ++j;
        continue;
      }
      if (xx == "=") {
        saw_eq = true;
        sig.push_back(j);
        ++j;
        continue;
      }
      if (xx == "{") {
        const std::string& prev = t[j - 1].text;
        const bool body_like = prev == ")" || prev == "}" || prev == "const" ||
                               prev == "noexcept" || prev == "override" ||
                               prev == "final" || prev == "try";
        if (body_like) {
          fn_like = true;
          const size_t c = SkipBalanced(t, j);
          j = c == kNpos ? body_end : c;
          break;  // function/nested body ends the statement
        }
        sig.push_back(j);
        const size_t c = SkipBalanced(t, j);  // brace initializer
        if (c == kNpos) {
          j = body_end;
          break;
        }
        j = c;
        continue;
      }
      if (xx == ";") {
        ++j;
        break;
      }
      sig.push_back(j);
      ++j;
    }
    const size_t stmt_end = j;
    if (!has_fn_paren && !fn_like && !sig.empty()) {
      bool skip = false;
      for (size_t s : sig) {
        const std::string& xx = t[s].text;
        if (xx == "using" || xx == "typedef" || xx == "friend" ||
            xx == "operator" || xx == "static_assert") {
          skip = true;
          break;
        }
      }
      if (!skip) {
        // Declarator name: last identifier whose significant successor is a
        // terminator (`;` / `=` / `{` / `[`).
        size_t name_pos = kNpos;
        for (size_t p = sig.size(); p-- > 0;) {
          const size_t idx = sig[p];
          if (!IsIdent(t, idx) || IsKeyword(t[idx].text)) continue;
          const std::string next =
              p + 1 < sig.size() ? t[sig[p + 1]].text : ";";
          if (next == ";" || next == "=" || next == "{" || next == "[") {
            name_pos = p;
            break;
          }
        }
        if (name_pos != kNpos) {
          MemberSym m;
          m.name = t[sig[name_pos]].text;
          m.line = t[sig[name_pos]].line;
          m.has_view_of = view_of;
          m.guarded_by = guarded;
          std::string type;
          for (size_t p = 0; p < name_pos; ++p) {
            const std::string& tok = t[sig[p]].text;
            if (!type.empty()) type += ' ';
            type += tok;
            if (tok == "mutable") m.is_mutable = true;
            if (tok == "static") m.is_static = true;
            if (tok == "mutex" || tok == "Mutex") m.is_mutex = true;
            if (tok == "atomic") m.is_atomic = true;
          }
          m.type = std::move(type);
          if (!m.type.empty()) cls.members.push_back(std::move(m));
        }
      }
    }
    i = stmt_end > i ? stmt_end : i + 1;
  }
}

// Class body token spans (open-brace / close-brace indices), aligned with
// out.classes, so the member parse needs no re-location.
void ScanStructure(const FileScan& scan, FileSymbols& out,
                   std::vector<std::pair<size_t, size_t>>& class_spans) {
  const std::vector<Token>& t = scan.tokens;
  std::vector<Scope> stack;
  auto enclosing_class = [&]() -> std::string {
    std::string name;
    for (const Scope& s : stack) {
      if (s.kind != Scope::kClass) continue;
      name = out.classes[s.sym].name;  // already fully nested-qualified
    }
    return name;
  };
  auto in_function = [&] {
    for (size_t k = stack.size(); k-- > 0;) {
      if (stack[k].kind == Scope::kFunction) return true;
      if (stack[k].kind == Scope::kClass) break;
    }
    return false;
  };

  for (size_t i = 0; i < t.size(); ++i) {
    const std::string& x = t[i].text;

    if (x == "template" && Is(t, i + 1, "<")) {
      // Never walk template parameter lists (`template <class T>` would
      // otherwise read as a class named T).
      const size_t j = SkipAngles(t, i + 1);
      if (j != kNpos) i = j - 1;
      continue;
    }

    if (x == "namespace") {
      size_t j = i + 1;
      while (IsIdent(t, j) || Is(t, j, "::")) ++j;
      if (Is(t, j, "{")) {
        stack.push_back({Scope::kNamespace, kNpos});
        i = j;
      }
      continue;
    }

    if ((x == "class" || x == "struct" || x == "union") &&
        !(i > 0 && t[i - 1].text == "enum")) {
      size_t j = i + 1;
      bool is_view = false;
      while (j < t.size()) {  // attributes / QPWM_* markers before the name
        if (t[j].kind == Token::Kind::kAttr) {
          ++j;
        } else if (StartsWithQpwmMacro(t[j].text)) {
          if (t[j].text == "QPWM_VIEW_TYPE") is_view = true;
          if (Is(t, j + 1, "(")) {
            const size_t c = SkipBalanced(t, j + 1);
            if (c == kNpos) break;
            j = c;
          } else {
            ++j;
          }
        } else if (Is(t, j, "alignas") && Is(t, j + 1, "(")) {
          const size_t c = SkipBalanced(t, j + 1);
          if (c == kNpos) break;
          j = c;
        } else {
          break;
        }
      }
      if (!IsIdent(t, j) || IsKeyword(t[j].text)) {
        if (Is(t, j, "{")) {  // anonymous struct/union
          stack.push_back({Scope::kBlock, kNpos});
          i = j;
        }
        continue;
      }
      const size_t name_pos = j;
      ++j;
      // Base clause / `final` up to the body or a `;` (forward declaration).
      while (j < t.size() && t[j].text != "{" && t[j].text != ";") {
        if (t[j].text == "<") {
          const size_t c = SkipAngles(t, j);
          if (c == kNpos) break;
          j = c;
          continue;
        }
        if (t[j].text == "(") {
          const size_t c = SkipBalanced(t, j);
          if (c == kNpos) break;
          j = c;
          continue;
        }
        ++j;
      }
      if (Is(t, j, "{")) {
        ClassSym cls;
        const std::string outer = enclosing_class();
        cls.name = outer.empty() ? t[name_pos].text
                                 : outer + "::" + t[name_pos].text;
        cls.line = t[name_pos].line;
        cls.is_view_type = is_view;
        out.classes.push_back(std::move(cls));
        class_spans.emplace_back(j, kNpos);
        stack.push_back({Scope::kClass, out.classes.size() - 1});
        i = j;
      } else if (j < t.size()) {
        i = j;  // forward declaration or variable of elaborated type
      }
      continue;
    }

    if (x == "enum") {
      size_t j = i + 1;
      while (j < t.size() && t[j].text != "{" && t[j].text != ";") ++j;
      if (Is(t, j, "{")) {
        stack.push_back({Scope::kOpaque, kNpos});
      }
      if (j < t.size()) i = j;
      continue;
    }

    if (x == "{") {
      stack.push_back({Scope::kBlock, kNpos});
      continue;
    }
    if (x == "}") {
      if (!stack.empty()) {
        const Scope s = stack.back();
        stack.pop_back();
        if (s.kind == Scope::kClass) class_spans[s.sym].second = i;
        if (s.kind == Scope::kFunction) out.functions[s.sym].body_end = i;
      }
      continue;
    }

    // A function body holds no further declarations to index.
    if (in_function()) continue;

    // Function/method detection at namespace or class scope.
    const bool scope_ok =
        stack.empty() || stack.back().kind == Scope::kNamespace ||
        stack.back().kind == Scope::kClass;
    if (!scope_ok) continue;

    size_t nm = kNpos;
    bool is_dtor = false;
    if (IsIdent(t, i) && !IsKeyword(x) && !StartsWithQpwmMacro(x) &&
        Is(t, i + 1, "(")) {
      nm = i;
      is_dtor = i > 0 && t[i - 1].text == "~";
    }
    if (nm == kNpos) continue;

    // Declarator start: back over `~` and `Class::` qualification.
    size_t ds = nm;
    if (is_dtor) --ds;
    std::string qual;
    while (ds >= 2 && t[ds - 1].text == "::" && IsIdent(t, ds - 2)) {
      qual = qual.empty() ? t[ds - 2].text : t[ds - 2].text + "::" + qual;
      ds -= 2;
    }
    if (!DeclaratorBoundary(t, ds)) continue;

    FunctionSym fn;
    fn.name = (is_dtor ? "~" : "") + t[nm].text;
    fn.line = t[nm].line;
    const std::string encl = enclosing_class();
    fn.class_name = !qual.empty()
                        ? (encl.empty() ? qual : encl + "::" + qual)
                        : encl;
    fn.params_begin = i + 1;
    const size_t params_close = SkipBalanced(t, i + 1);
    if (params_close == kNpos) continue;
    fn.params_end = params_close - 1;
    fn.return_tokens = ReturnTokens(t, ds);
    std::string last_cls = fn.class_name;
    const size_t sep = last_cls.rfind("::");
    if (sep != std::string::npos) last_cls = last_cls.substr(sep + 2);
    fn.is_ctor_or_dtor =
        is_dtor || (!fn.class_name.empty() && fn.name == last_cls);

    const size_t resume = WalkFunctionSuffix(t, params_close, fn);
    if (resume == kNpos) continue;  // not a function after all
    fn.is_definition = fn.body_begin != kNoBody;
    out.functions.push_back(std::move(fn));
    if (out.functions.back().is_definition) {
      stack.push_back({Scope::kFunction, out.functions.size() - 1});
    }
    i = resume;  // the body `{` was consumed by the scope push
  }
}

}  // namespace

FileSymbols CollectFileSymbols(const FileScan& scan) {
  FileSymbols out;
  out.path = NormalizePath(scan.path);
  CollectNameFacts(scan, out);
  std::vector<std::pair<size_t, size_t>> class_spans;
  ScanStructure(scan, out, class_spans);
  for (size_t c = 0; c < out.classes.size(); ++c) {
    const auto [open, close] = class_spans[c];
    if (close == kNpos) continue;  // unterminated scan
    ParseClassMembers(scan, open, close, out.classes[c]);
  }
  return out;
}

void MergeSymbols(const FileSymbols& syms, LintContext& ctx) {
  ctx.status_apis.insert(syms.status_apis.begin(), syms.status_apis.end());
  if (!syms.unordered_names.empty()) {
    std::set<std::string>& u = ctx.unordered_by_file[syms.path];
    u.insert(syms.unordered_names.begin(), syms.unordered_names.end());
  }
  for (const ClassSym& cls : syms.classes) {
    ClassSym& dst = ctx.classes[cls.name];
    if (dst.name.empty()) {
      dst = cls;
      continue;
    }
    dst.is_view_type = dst.is_view_type || cls.is_view_type;
    for (const MemberSym& m : cls.members) {
      bool found = false;
      for (MemberSym& existing : dst.members) {
        if (existing.name != m.name) continue;
        found = true;
        if (existing.guarded_by.empty()) existing.guarded_by = m.guarded_by;
        existing.has_view_of = existing.has_view_of || m.has_view_of;
        break;
      }
      if (!found) dst.members.push_back(m);
    }
  }
  for (const FunctionSym& fn : syms.functions) {
    const std::string key =
        fn.class_name.empty() ? fn.name : fn.class_name + "::" + fn.name;
    FunctionSym& dst = ctx.functions[key];
    if (dst.name.empty()) {
      dst = fn;
      // Spans point into a per-file scan; they are meaningless in the
      // merged context.
      dst.body_begin = dst.body_end = kNoBody;
      dst.params_begin = dst.params_end = kNoBody;
    } else {
      dst.is_definition = dst.is_definition || fn.is_definition;
      dst.is_ctor_or_dtor = dst.is_ctor_or_dtor || fn.is_ctor_or_dtor;
      dst.requires_mutexes.insert(fn.requires_mutexes.begin(),
                                  fn.requires_mutexes.end());
      if (fn.is_definition) dst.line = fn.line;
    }
  }
}

FileSymbols CollectContext(const FileScan& scan, LintContext& ctx) {
  FileSymbols syms = CollectFileSymbols(scan);
  MergeSymbols(syms, ctx);
  return syms;
}

void FinalizeContext(LintContext& ctx) {
  static const char* kBuiltinViews[] = {"TupleRef",        "TupleList",
                                        "span",            "string_view",
                                        "DenseWeightView", "WitnessPlan"};
  for (const char* v : kBuiltinViews) ctx.view_types.insert(v);
  for (const auto& [name, cls] : ctx.classes) {
    if (!cls.is_view_type) continue;
    const size_t sep = name.rfind("::");
    ctx.view_types.insert(sep == std::string::npos ? name
                                                   : name.substr(sep + 2));
  }
  ctx.finalized = true;
}

}  // namespace qpwm::lint
