// Per-file pattern rules for qpwm_lint, plus the AnalyzeFile dispatcher that
// also runs the cross-TU families from xtu_rules.cc. Everything here works
// on the token stream from lexer.cc; see lint.h for the rule catalog. Pass-1
// symbol collection lives in index.cc.
#include <chrono>

#include "internal.h"
#include "lint.h"

namespace qpwm::lint {
namespace {

using namespace qpwm::lint::internal;

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

}  // namespace

const std::vector<std::string>& AllRules() {
  static const std::vector<std::string> kAll = {
      kDiscardedStatus, kXtuDiscardedStatus, kNodiscardStatus,
      kRawStatus,       kBareAbort,          kBareThrow,
      kNondeterministicRandom, kUnorderedIter, kParallelMutation,
      kLegacyTupleVector, kViewEscape,       kLockDiscipline};
  return kAll;
}

bool IsAdvisoryRule(std::string_view rule) {
  // view-escape and lock-discipline are heuristic lifetime/locking shapes:
  // advisory by default, gating under --strict like the other advisories.
  return rule == kUnorderedIter || rule == kParallelMutation ||
         rule == kLegacyTupleVector || rule == kViewEscape ||
         rule == kLockDiscipline;
}

// --- Pass 2: per-file rules --------------------------------------------------

namespace {

// error-discipline: header declarations returning Status/Result must carry
// [[nodiscard]] (the class-level attribute covers by-value returns at compile
// time; the lint keeps the declarations annotated so intent survives at every
// API and reference-returning overloads stay reviewable).
void CheckNodiscard(const FileScan& scan, std::vector<Finding>& out) {
  if (!IsHeader(scan.path)) return;
  const std::vector<Token>& t = scan.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (!IsIdent(t, i)) continue;
    if (t[i].text != "Status" && t[i].text != "Result") continue;
    if (i > 0 && (t[i - 1].text == "." || t[i - 1].text == "->" ||
                  t[i - 1].text == "::")) {
      continue;  // qualified use (qpwm::Status handled at the `qpwm` token)
    }
    const size_t name = MatchStatusApi(t, i);
    if (name == kNpos) continue;
    // Walk back over specifiers; a declaration begins at a boundary token.
    size_t k = i;
    bool has_nodiscard = false;
    while (k > 0) {
      const Token& prev = t[k - 1];
      if (prev.kind == Token::Kind::kAttr) {
        if (prev.text.find("nodiscard") != std::string::npos) {
          has_nodiscard = true;
        }
        --k;
        continue;
      }
      if (IsDeclSpecifier(prev.text)) {
        --k;
        continue;
      }
      break;
    }
    const bool at_boundary =
        k == 0 || t[k - 1].text == ";" || t[k - 1].text == "{" ||
        t[k - 1].text == "}" || t[k - 1].text == ":" || t[k - 1].text == ">";
    if (!at_boundary) continue;  // not a declaration (cast, call, ...)
    if (!has_nodiscard) {
      Report(scan, t[i].line, kNodiscardStatus,
             "declaration of '" + t[name].text + "' returns " + t[i].text +
                 " without [[nodiscard]]",
             out);
    }
  }
}

// error-discipline: a whole statement that is just a call to a known
// Status/Result-returning function discards the outcome. `(void)` casts of
// such calls are the same bug wearing a suppression.
void CheckDiscardedStatus(const FileScan& scan, const LintContext& ctx,
                          std::vector<Finding>& out) {
  const std::vector<Token>& t = scan.tokens;
  size_t start = 0;  // index of the first token of the current statement
  for (size_t i = 0; i <= t.size(); ++i) {
    const bool boundary =
        i == t.size() || t[i].text == ";" || t[i].text == "{" || t[i].text == "}";
    if (!boundary) continue;
    const size_t begin = start;
    start = i + 1;
    if (i == t.size() || t[i].text != ";") continue;  // only `...;` statements
    size_t j = begin;
    bool voided = false;
    if (Is(t, j, "(") && Is(t, j + 1, "void") && Is(t, j + 2, ")")) {
      voided = true;
      j += 3;
    }
    // Postfix chain: ident (::ident)*, then any mix of . / -> member hops
    // and (...) calls — `obj.handle().Commit();` flags on `Commit`. Anything
    // else (declarations have a second identifier, assignments an operator)
    // bails out.
    if (!IsIdent(t, j) || IsKeyword(t[j].text)) continue;
    std::string callee = t[j].text;
    ++j;
    while (Is(t, j, "::") && IsIdent(t, j + 1)) {
      callee = t[j + 1].text;
      j += 2;
    }
    bool called = false;
    while (j < i) {
      if (Is(t, j, "(")) {
        const size_t after = SkipBalanced(t, j);
        if (after == kNpos) break;
        j = after;
        called = true;
        continue;
      }
      if ((Is(t, j, ".") || Is(t, j, "->")) && IsIdent(t, j + 1)) {
        callee = t[j + 1].text;
        called = false;
        j += 2;
        continue;
      }
      break;
    }
    if (j != i || !called) continue;  // trailing operators: not a bare call
    if (ctx.status_apis.count(callee) == 0) continue;
    Report(scan, t[begin].line, kDiscardedStatus,
           std::string(voided ? "(void)-suppressed" : "discarded") +
               " result of Status/Result-returning call '" + callee + "'",
           out);
  }
}

// error-discipline: Status built from a raw StatusCode outside the factories.
void CheckRawStatus(const FileScan& scan, std::vector<Finding>& out) {
  const std::vector<Token>& t = scan.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (!Is(t, i, "Status")) continue;
    size_t j = i + 1;
    if (IsIdent(t, j) && !IsKeyword(t[j].text)) ++j;  // named variable form
    if (!Is(t, j, "(") && !Is(t, j, "{")) continue;
    size_t a = j + 1;
    if (Is(t, a, "qpwm") && Is(t, a + 1, "::")) a += 2;
    if (Is(t, a, "StatusCode")) {
      Report(scan, t[i].line, kRawStatus,
             "raw Status(StatusCode, ...) construction; use a factory "
             "(Status::InvalidArgument(...) etc.)",
             out);
    }
  }
}

// error-discipline: process-killing calls outside check.h / status.cc, and
// `throw` anywhere — recoverable errors are Status values, invariants are
// QPWM_CHECK.
void CheckAbortThrow(const FileScan& scan, std::vector<Finding>& out) {
  const std::vector<Token>& t = scan.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (!IsIdent(t, i)) continue;
    const std::string& x = t[i].text;
    if (x == "throw") {
      Report(scan, t[i].line, kBareThrow,
             "'throw' outside the Status/QPWM_CHECK error model", out);
      continue;
    }
    const bool killer =
        x == "abort" || x == "terminate" || x == "quick_exit" || x == "_Exit";
    if (killer && Is(t, i + 1, "(") &&
        (i == 0 || (t[i - 1].text != "." && t[i - 1].text != "->"))) {
      Report(scan, t[i].line, kBareAbort,
             "process-terminating call '" + x +
                 "' outside util/check.h (use QPWM_CHECK or return Status)",
             out);
    }
  }
}

// determinism: entropy sources other than the seeded Rng in util/random.
void CheckNondeterministicRandom(const FileScan& scan,
                                 std::vector<Finding>& out) {
  const std::vector<Token>& t = scan.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (!IsIdent(t, i)) continue;
    const std::string& x = t[i].text;
    const bool always_banned =
        x == "random_device" || x == "mt19937" || x == "mt19937_64" ||
        x == "default_random_engine" || x == "minstd_rand" ||
        x == "minstd_rand0" || x == "srand";
    // rand()/time() only as direct calls, so members like obj.rand() or
    // chrono clock types do not trip the rule.
    const bool call_banned =
        (x == "rand" || x == "time" || x == "clock") && Is(t, i + 1, "(") &&
        (i == 0 || (t[i - 1].text != "." && t[i - 1].text != "->"));
    if (always_banned || call_banned) {
      Report(scan, t[i].line, kNondeterministicRandom,
             "nondeterministic source '" + x +
                 "' outside util/random; derive randomness from a seeded "
                 "qpwm::Rng",
             out);
    }
  }
}

// The unordered-typed names a file can legitimately iterate: its own
// declarations plus those of headers it directly #includes. Matching is by
// path suffix ("src/qpwm/util/x.h" ends with the include "qpwm/util/x.h"),
// so names never leak between unrelated files that merely reuse an
// identifier.
std::set<std::string> EffectiveUnorderedNames(const FileScan& scan,
                                              const LintContext& ctx) {
  std::set<std::string> names;
  auto matches = [&](const std::string& key) {
    if (key == scan.path) return true;
    for (const std::string& inc : scan.includes) {
      if (key.size() >= inc.size() &&
          key.compare(key.size() - inc.size(), inc.size(), inc) == 0 &&
          (key.size() == inc.size() || key[key.size() - inc.size() - 1] == '/')) {
        return true;
      }
    }
    return false;
  };
  for (const auto& [key, declared] : ctx.unordered_by_file) {
    if (matches(key)) names.insert(declared.begin(), declared.end());
  }
  return names;
}

// determinism: range-for over an unordered container visits hash order.
void CheckUnorderedIter(const FileScan& scan,
                        const std::set<std::string>& unordered_names,
                        std::vector<Finding>& out) {
  const std::vector<Token>& t = scan.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (!Is(t, i, "for") || !Is(t, i + 1, "(")) continue;
    const size_t end = SkipBalanced(t, i + 1);
    if (end == kNpos) continue;
    // Find the range-for `:` at paren depth 1 (skip nested parens/brackets
    // and `::`, which the lexer already fused).
    size_t colon = kNpos;
    int depth = 0;
    for (size_t j = i + 1; j < end - 1; ++j) {
      const std::string& x = t[j].text;
      if (x == "(" || x == "[" || x == "{") ++depth;
      else if (x == ")" || x == "]" || x == "}") --depth;
      else if (x == ":" && depth == 1) {
        colon = j;
        break;
      }
      else if (x == ";" && depth == 1) break;  // classic for loop
    }
    if (colon == kNpos) continue;
    for (size_t j = colon + 1; j < end - 1; ++j) {
      if (!IsIdent(t, j)) continue;
      if (IsUnorderedType(t[j].text) || unordered_names.count(t[j].text)) {
        Report(scan, t[colon].line, kUnorderedIter,
               "range-for over unordered container '" + t[j].text +
                   "' visits hash order; sort first or allowlist with a "
                   "reason if order-independent",
               out);
        break;
      }
    }
  }
}

// parallel hygiene: a lambda handed to ParallelFor/Map/Blocks may only write
// through its own locals or per-index slots (`out[i] = ...`); container
// mutators or ++/+= on outer state race across workers.
void CheckParallelMutation(const FileScan& scan, std::vector<Finding>& out) {
  static const std::set<std::string> kMutators = {
      "push_back", "emplace_back", "emplace", "insert",  "erase", "clear",
      "resize",    "pop_back",     "assign",  "reserve", "merge"};
  const std::vector<Token>& t = scan.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (!IsIdent(t, i)) continue;
    const std::string& x = t[i].text;
    if (x != "ParallelFor" && x != "ParallelMap" && x != "ParallelBlocks") {
      continue;
    }
    size_t j = i + 1;
    if (Is(t, j, "<")) {
      j = SkipAngles(t, j);
      if (j == kNpos) continue;
    }
    if (!Is(t, j, "(")) continue;
    const size_t call_end = SkipBalanced(t, j);
    if (call_end == kNpos) continue;
    // Locate the lambda: capture list, parameter list, body.
    size_t lam = j + 1;
    while (lam < call_end && t[lam].text != "[") ++lam;
    if (lam >= call_end) continue;
    const size_t caps_end = SkipBalanced(t, lam);
    if (caps_end == kNpos || !Is(t, caps_end, "(")) continue;
    const size_t params_end = SkipBalanced(t, caps_end);
    if (params_end == kNpos) continue;
    std::set<std::string> locals;
    for (size_t p = caps_end + 1; p + 1 < params_end; ++p) {
      if (IsIdent(t, p) && !IsKeyword(t[p].text)) locals.insert(t[p].text);
    }
    size_t body = params_end;
    while (body < call_end && t[body].text != "{") ++body;
    if (body >= call_end) continue;
    const size_t body_end = SkipBalanced(t, body);
    if (body_end == kNpos) continue;

    for (size_t k = body + 1; k + 1 < body_end; ++k) {
      // Heuristic local declarations: `Type name ( | = | ; | {`, where Type's
      // last token is an identifier (incl. auto/const) or a closing `>`.
      // Statement-like keywords (`return x = ...` cannot occur, but `delete
      // p;` / `case x:` shapes can) never start a declaration.
      static const std::set<std::string> kNeverType = {
          "return", "new",       "delete",   "case",  "goto", "else",
          "do",     "co_return", "co_yield", "break", "continue"};
      const bool prev_typelike =
          k > body + 1 &&
          ((IsIdent(t, k - 1) && kNeverType.count(t[k - 1].text) == 0) ||
           t[k - 1].text == ">" || t[k - 1].text == ">>" ||
           t[k - 1].text == "&" || t[k - 1].text == "*");
      if (IsIdent(t, k) && !IsKeyword(t[k].text) && prev_typelike &&
          (Is(t, k + 1, "=") || Is(t, k + 1, ";") || Is(t, k + 1, "(") ||
           Is(t, k + 1, "{"))) {
        // `ident ident (` is a declaration only if the previous token is not
        // `.`/`->`/`::` (member calls) — the chain check below needs those.
        if (t[k - 1].kind == Token::Kind::kIdent ||
            !(Is(t, k + 1, "("))) {
          locals.insert(t[k].text);
        }
      }
      // Comma-chained declarators: `size_t a = 0, b = 0;` declares b too.
      if (IsIdent(t, k) && !IsKeyword(t[k].text) && Is(t, k - 1, ",") &&
          (Is(t, k + 1, "=") || Is(t, k + 1, "{")) &&
          locals.count(t[k].text) == 0) {
        // Only inside a declaration statement: walk back to the statement
        // start and require it to begin with a type-like identifier sequence.
        size_t s = k - 1;
        int d = 0;
        while (s > body) {
          const std::string& x = t[s].text;
          if (x == ")" || x == "]") ++d;
          else if (x == "(" || x == "[") {
            if (d == 0) break;
            --d;
          } else if (d == 0 && (x == ";" || x == "{" || x == "}")) {
            break;
          }
          --s;
        }
        if (d == 0 && s + 2 < k && IsIdent(t, s + 1) &&
            kNeverType.count(t[s + 1].text) == 0 && IsIdent(t, s + 2)) {
          locals.insert(t[k].text);
        }
      }
      // Mutator member call on an outer identifier.
      if (IsIdent(t, k) && (Is(t, k + 1, ".") || Is(t, k + 1, "->")) &&
          k + 2 < body_end && kMutators.count(t[k + 2].text) &&
          Is(t, k + 3, "(") && !locals.count(t[k].text) &&
          (k == 0 || (t[k - 1].text != "." && t[k - 1].text != "->" &&
                      t[k - 1].text != "::"))) {
        Report(scan, t[k].line, kParallelMutation,
               "parallel body mutates '" + t[k].text + "." + t[k + 2].text +
                   "(...)' declared outside the lambda; use per-index slots "
                   "or the sharded patterns in util/parallel",
               out);
      }
      // ++/--/compound-assign on an outer identifier (indexed slots like
      // out[i] are the sanctioned pattern and do not match).
      const bool inc_before = (Is(t, k, "++") || Is(t, k, "--")) &&
                              IsIdent(t, k + 1) && !Is(t, k + 2, "[");
      const bool inc_after = IsIdent(t, k) && !IsKeyword(t[k].text) &&
                             (Is(t, k + 1, "++") || Is(t, k + 1, "--") ||
                              Is(t, k + 1, "+=") || Is(t, k + 1, "-=") ||
                              Is(t, k + 1, "|=") || Is(t, k + 1, "&=") ||
                              Is(t, k + 1, "^="));
      const size_t target = inc_before ? k + 1 : k;
      if ((inc_before || inc_after) && !locals.count(t[target].text) &&
          (target == 0 ||
           (t[target - 1].text != "." && t[target - 1].text != "->" &&
            t[target - 1].text != "::" && t[target - 1].text != "]"))) {
        Report(scan, t[target].line, kParallelMutation,
               "parallel body writes outer variable '" + t[target].text +
                   "'; reduce per-block and merge on the caller instead",
               out);
      }
    }
    i = body_end;  // nested parallel calls inside the body were covered
  }
}

// flat storage: by-value std::vector<Tuple> in library code outside
// structure/ rebuilds row storage the flat CSR relations already hold.
// References/pointers (`const std::vector<Tuple>&` parameters) do not match —
// borrowing an existing materialization is fine, creating one is the smell.
// Function declarations (identifier followed by `(`) are exempt: query
// evaluation returns materialized answer sets by contract.
void CheckLegacyTupleVector(const FileScan& scan, std::vector<Finding>& out) {
  // Library code only — tests/bench/tools materialize rows freely. The
  // fixture directory opts in so the rule stays end-to-end testable.
  if (!PathHas(scan.path, "src/qpwm/") && !PathHas(scan.path, "lint_fixtures/")) {
    return;
  }
  const std::vector<Token>& t = scan.tokens;
  for (size_t i = 0; i + 3 < t.size(); ++i) {
    if (!Is(t, i, "vector") || !Is(t, i + 1, "<") || !Is(t, i + 2, "Tuple") ||
        !Is(t, i + 3, ">")) {
      continue;
    }
    // `>` followed by an identifier: a by-value variable/member/parameter
    // declaration. `&`, `*`, `>` (nested template argument) etc. bail out.
    const size_t j = i + 4;
    if (!IsIdent(t, j) || IsKeyword(t[j].text)) continue;
    // Identifier (possibly `::`-qualified) followed by `(` is a function
    // returning a materialized answer set — that is the query API's
    // contract, not stored state.
    size_t name_end = j;
    while (Is(t, name_end + 1, "::") && IsIdent(t, name_end + 2)) {
      name_end += 2;
    }
    if (Is(t, name_end + 1, "(")) continue;
    Report(scan, t[i].line, kLegacyTupleVector,
           "by-value std::vector<Tuple> '" + t[j].text +
               "' outside structure/; prefer TupleRef/TupleList views over "
               "the flat store, or allowlist a cold path with a reason",
           out);
  }
}

}  // namespace

void AnalyzeFile(const FileScan& scan_in, const FileSymbols& syms, const LintContext& ctx,
                 std::vector<Finding>& out, RuleTimings* timings) {
  FileScan scan = scan_in;
  scan.path = NormalizePath(scan.path);
  const auto timed = [&](const char* rule, auto&& run) {
    if (timings == nullptr) {
      run();
      return;
    }
    const auto t0 = std::chrono::steady_clock::now();
    run();
    (*timings)[rule] +=
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
  };
  timed(kNodiscardStatus, [&] { CheckNodiscard(scan, out); });
  timed(kDiscardedStatus, [&] { CheckDiscardedStatus(scan, ctx, out); });
  timed(kRawStatus, [&] { CheckRawStatus(scan, out); });
  timed(kBareAbort, [&] { CheckAbortThrow(scan, out); });
  timed(kNondeterministicRandom,
        [&] { CheckNondeterministicRandom(scan, out); });
  timed(kUnorderedIter, [&] {
    CheckUnorderedIter(scan, EffectiveUnorderedNames(scan, ctx), out);
  });
  timed(kParallelMutation, [&] { CheckParallelMutation(scan, out); });
  timed(kLegacyTupleVector, [&] { CheckLegacyTupleVector(scan, out); });
  timed(kViewEscape, [&] { CheckViewEscape(scan, syms, ctx, out); });
  timed(kLockDiscipline, [&] { CheckLockDiscipline(scan, syms, ctx, out); });
  timed(kXtuDiscardedStatus,
        [&] { CheckXtuDiscardedStatus(scan, syms, ctx, out); });
}

}  // namespace qpwm::lint
