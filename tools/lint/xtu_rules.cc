// Pass 2, cross-TU rule families for qpwm_lint: view-escape, lock-discipline
// and interprocedural discarded-Status. Each rule consumes the analyzed
// file's own symbols (with live token spans) plus the merged, finalized
// project context, so a guarded member declared in a header is enforced in
// every .cc that touches it. See lint.h for the rule catalog and docs/
// static-analysis.md for the architecture.
#include <string>

#include "internal.h"
#include "lint.h"

namespace qpwm::lint::internal {
namespace {

// Owner types whose function-local instances die at end of scope; a view
// rooted at one must not leave the function (the PR-3 CLI bug shape).
bool IsOwnerType(const std::string& s) {
  return s == "Structure" || s == "Relation" || s == "WeightMap" ||
         s == "QueryIndex";
}

// Accessors known to hand back views into the receiver's storage.
bool IsViewAccessor(const std::string& s) {
  return s == "tuples" || s == "tuple";
}

bool MentionsViewType(const std::string& type_joined,
                      const std::set<std::string>& view_types) {
  size_t start = 0;
  while (start <= type_joined.size()) {
    size_t end = type_joined.find(' ', start);
    if (end == std::string::npos) end = type_joined.size();
    if (end > start && view_types.count(type_joined.substr(start, end - start))) {
      return true;
    }
    if (end == type_joined.size()) break;
    start = end + 1;
  }
  return false;
}

bool MentionsViewType(const std::vector<std::string>& tokens,
                      const std::set<std::string>& view_types) {
  for (const std::string& tok : tokens) {
    if (view_types.count(tok)) return true;
  }
  return false;
}

std::string LastNameComponent(const std::string& qualified) {
  const size_t sep = qualified.rfind("::");
  return sep == std::string::npos ? qualified : qualified.substr(sep + 2);
}

std::string FnKey(const FunctionSym& fn) {
  return fn.class_name.empty() ? fn.name : fn.class_name + "::" + fn.name;
}

// Function-local owners: by-value owner-typed parameters and local
// declarations (`Structure g;` / `Structure g = ...;`). References and
// pointers do not own, so they never match.
std::set<std::string> OwnerLocals(const std::vector<Token>& t,
                                  const FunctionSym& fn) {
  std::set<std::string> locals;
  auto scan_range = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end && i < t.size(); ++i) {
      if (!IsIdent(t, i) || !IsOwnerType(t[i].text)) continue;
      if (i > 0 && (t[i - 1].text == "." || t[i - 1].text == "->" ||
                    t[i - 1].text == "::" || t[i - 1].text == "<")) {
        continue;  // qualified use or template argument
      }
      size_t j = i + 1;
      if (j < end && (t[j].text == "&" || t[j].text == "*" ||
                      t[j].text == ">" || t[j].text == ">>")) {
        continue;  // reference/pointer/template-arg: not an owned local
      }
      if (IsIdent(t, j) && !IsKeyword(t[j].text)) locals.insert(t[j].text);
    }
  };
  if (fn.params_begin != kNoBody && fn.params_end != kNoBody) {
    scan_range(fn.params_begin + 1, fn.params_end);
  }
  if (fn.body_begin != kNoBody && fn.body_end != kNoBody) {
    scan_range(fn.body_begin + 1, fn.body_end);
  }
  return locals;
}

// Identifiers inside a lock constructor's argument list; `lock(shard.mu)`
// contributes both `shard` and `mu`, so guard names match by either handle.
void CollectLockArgs(const std::vector<Token>& t, size_t open, size_t close,
                     std::set<std::string>& held) {
  for (size_t j = open + 1; j + 1 < close; ++j) {
    if (IsIdent(t, j) && !IsKeyword(t[j].text)) held.insert(t[j].text);
  }
}

}  // namespace

// lifetime: (a) a view-typed data member without QPWM_VIEW_OF, (b) a view
// returned rooted at a function-local owner, (c) a returned lambda that
// captures by reference.
void CheckViewEscape(const FileScan& scan, const FileSymbols& syms,
                     const LintContext& ctx, std::vector<Finding>& out) {
  const std::vector<Token>& t = scan.tokens;

  for (const ClassSym& cls : syms.classes) {
    bool class_is_view = cls.is_view_type;
    const auto merged = ctx.classes.find(cls.name);
    if (merged != ctx.classes.end() && merged->second.is_view_type) {
      class_is_view = true;
    }
    if (class_is_view || ctx.view_types.count(LastNameComponent(cls.name))) {
      continue;  // a view of a view adds no lifetime edge
    }
    for (const MemberSym& m : cls.members) {
      if (m.is_static || m.has_view_of) continue;
      if (!MentionsViewType(m.type, ctx.view_types)) continue;
      Report(scan, m.line, kViewEscape,
             "member '" + m.name + "' of '" + cls.name + "' has view type (" +
                 m.type + ") but no QPWM_VIEW_OF(owner) naming what it " +
                 "points into; a stored view that outlives its owner " +
                 "dangles (PR-3 bug class)",
             out);
    }
  }

  for (const FunctionSym& fn : syms.functions) {
    if (fn.body_begin == kNoBody || fn.body_end == kNoBody) continue;
    const std::set<std::string> owners = OwnerLocals(t, fn);
    const bool returns_view = MentionsViewType(fn.return_tokens, ctx.view_types);
    for (size_t i = fn.body_begin + 1; i < fn.body_end; ++i) {
      if (!Is(t, i, "return")) continue;
      if (Is(t, i + 1, "[")) {  // returned lambda: reference captures escape
        const size_t caps_end = SkipBalanced(t, i + 1);
        if (caps_end == kNpos) continue;
        for (size_t j = i + 2; j + 1 < caps_end; ++j) {
          if (t[j].text == "&") {
            Report(scan, t[i].line, kViewEscape,
                   "function '" + FnKey(fn) + "' returns a lambda capturing " +
                       "by reference; the captured state must outlive every " +
                       "call site (PR-3 bug class)",
                   out);
            break;
          }
        }
        continue;
      }
      if (owners.empty()) continue;
      if (!IsIdent(t, i + 1) || owners.count(t[i + 1].text) == 0) continue;
      // Walk the postfix chain to the last member call before `;`.
      std::string last_call;
      size_t j = i + 2;
      while (j < fn.body_end && !Is(t, j, ";")) {
        if ((Is(t, j, ".") || Is(t, j, "->")) && IsIdent(t, j + 1)) {
          if (Is(t, j + 2, "(")) last_call = t[j + 1].text;
          j += 2;
          continue;
        }
        if (Is(t, j, "(") || Is(t, j, "[")) {
          const size_t c = SkipBalanced(t, j);
          if (c == kNpos) break;
          j = c;
          continue;
        }
        break;
      }
      if (returns_view || IsViewAccessor(last_call)) {
        Report(scan, t[i].line, kViewEscape,
               "function '" + FnKey(fn) + "' returns a view rooted at " +
                   "function-local owner '" + t[i + 1].text +
                   "', which dies at end of scope (PR-3 bug class)",
               out);
      }
    }
  }
}

// parallel hygiene: guarded members must be touched under their mutex (or
// from a QPWM_REQUIRES method); mutex-owning classes should annotate.
void CheckLockDiscipline(const FileScan& scan, const FileSymbols& syms,
                         const LintContext& ctx, std::vector<Finding>& out) {
  const std::vector<Token>& t = scan.tokens;

  // (b) advisory shape: a mutex with nothing declared under it.
  for (const ClassSym& cls : syms.classes) {
    bool has_mutex = false, has_state = false, has_guard = false;
    for (const MemberSym& m : cls.members) {
      if (m.is_static) continue;
      if (m.is_mutex) has_mutex = true;
      else if (!m.is_atomic) has_state = true;
      if (!m.guarded_by.empty()) has_guard = true;
    }
    if (!has_guard) {  // QPWM_REQUIRES methods count as lock discipline too
      const std::string prefix = cls.name + "::";
      for (auto it = ctx.functions.lower_bound(prefix);
           it != ctx.functions.end() && it->first.compare(0, prefix.size(),
                                                          prefix) == 0;
           ++it) {
        if (!it->second.requires_mutexes.empty()) {
          has_guard = true;
          break;
        }
      }
    }
    if (has_mutex && has_state && !has_guard) {
      Report(scan, cls.line, kLockDiscipline,
             "class '" + cls.name + "' owns a mutex but annotates no member " +
                 "with QPWM_GUARDED_BY; declare what the mutex protects " +
                 "(or allowlist with the reason)",
             out);
    }
  }

  // (a) guarded member touched without its mutex.
  for (const FunctionSym& fn : syms.functions) {
    if (fn.body_begin == kNoBody || fn.body_end == kNoBody) continue;
    if (fn.class_name.empty() || fn.is_ctor_or_dtor) continue;

    std::map<std::string, std::string> own;     // bare member -> mutex
    std::map<std::string, std::string> nested;  // dotted member -> mutex
    const auto self = ctx.classes.find(fn.class_name);
    if (self != ctx.classes.end()) {
      for (const MemberSym& m : self->second.members) {
        if (!m.guarded_by.empty()) own[m.name] = m.guarded_by;
      }
    }
    const std::string prefix = fn.class_name + "::";
    for (auto it = ctx.classes.lower_bound(prefix);
         it != ctx.classes.end() &&
         it->first.compare(0, prefix.size(), prefix) == 0;
         ++it) {
      for (const MemberSym& m : it->second.members) {
        if (!m.guarded_by.empty()) nested[m.name] = m.guarded_by;
      }
    }
    if (own.empty() && nested.empty()) continue;

    std::set<std::string> held;
    const auto merged = ctx.functions.find(FnKey(fn));
    if (merged != ctx.functions.end()) {
      held.insert(merged->second.requires_mutexes.begin(),
                  merged->second.requires_mutexes.end());
    }
    held.insert(fn.requires_mutexes.begin(), fn.requires_mutexes.end());
    for (size_t i = fn.body_begin + 1; i < fn.body_end; ++i) {
      if (!IsIdent(t, i)) continue;
      const std::string& x = t[i].text;
      const bool raii = x == "lock_guard" || x == "unique_lock" ||
                        x == "scoped_lock" || x == "MutexLock";
      if (raii) {
        size_t j = i + 1;
        if (Is(t, j, "<")) {
          j = SkipAngles(t, j);
          if (j == kNpos) continue;
        }
        if (IsIdent(t, j)) ++j;  // the lock variable's name
        if (Is(t, j, "(")) {
          const size_t close = SkipBalanced(t, j);
          if (close != kNpos) CollectLockArgs(t, j, close, held);
        }
        continue;
      }
      if (Is(t, i + 1, ".") && Is(t, i + 2, "lock") && Is(t, i + 3, "(")) {
        held.insert(x);  // manual mu.lock()
      }
    }

    std::set<std::string> reported;
    for (size_t i = fn.body_begin + 1; i < fn.body_end; ++i) {
      if (!IsIdent(t, i)) continue;
      const std::string& name = t[i].text;
      const std::string prev = i > 0 ? t[i - 1].text : "";
      std::string mutex;
      if (own.count(name) && prev != "." && prev != "->" && prev != "::") {
        mutex = own[name];
      } else if (nested.count(name) && (prev == "." || prev == "->")) {
        mutex = nested[name];
      } else {
        continue;
      }
      if (held.count(mutex) || reported.count(name)) continue;
      reported.insert(name);
      Report(scan, t[i].line, kLockDiscipline,
             "method '" + FnKey(fn) + "' touches '" + name +
                 "' (QPWM_GUARDED_BY(" + mutex + ")) without holding '" +
                 mutex + "'; lock it or annotate the method QPWM_REQUIRES(" +
                 mutex + ")",
             out);
    }
  }
}

// error-discipline: a Status/Result parked in a local (or auto alias of a
// known Status API call) that is never inspected — or only (void)-dropped.
void CheckXtuDiscardedStatus(const FileScan& scan, const FileSymbols& syms,
                             const LintContext& ctx,
                             std::vector<Finding>& out) {
  const std::vector<Token>& t = scan.tokens;

  for (const FunctionSym& fn : syms.functions) {
    if (fn.body_begin == kNoBody || fn.body_end == kNoBody) continue;
    for (size_t i = fn.body_begin + 1; i < fn.body_end; ++i) {
      if (!IsIdent(t, i)) continue;
      const std::string prev = i > 0 ? t[i - 1].text : "";
      if (prev == "." || prev == "->") continue;
      size_t name_pos = kNpos;
      bool need_status_api = false;
      if (t[i].text == "Status" && prev != "::" && IsIdent(t, i + 1) &&
          !IsKeyword(t[i + 1].text) && Is(t, i + 2, "=")) {
        name_pos = i + 1;
      } else if (t[i].text == "Result" && Is(t, i + 1, "<")) {
        const size_t j = SkipAngles(t, i + 1);
        if (j != kNpos && IsIdent(t, j) && !IsKeyword(t[j].text) &&
            Is(t, j + 1, "=")) {
          name_pos = j;
        }
      } else if (t[i].text == "auto") {
        size_t j = i + 1;
        if (Is(t, j, "&&") || Is(t, j, "&") || Is(t, j, "const")) ++j;
        if (IsIdent(t, j) && !IsKeyword(t[j].text) && Is(t, j + 1, "=")) {
          name_pos = j;
          need_status_api = true;  // only flag aliases of known Status APIs
        }
      }
      if (name_pos == kNpos) continue;

      // The initializer: last identifier called before the statement ends.
      std::string callee;
      size_t stmt_end = name_pos + 1;
      while (stmt_end < fn.body_end && !Is(t, stmt_end, ";")) {
        if (IsIdent(t, stmt_end) && Is(t, stmt_end + 1, "(") &&
            !IsKeyword(t[stmt_end].text)) {
          callee = t[stmt_end].text;
          const size_t c = SkipBalanced(t, stmt_end + 1);
          if (c == kNpos) break;
          stmt_end = c;
          continue;
        }
        ++stmt_end;
      }
      if (callee.empty()) continue;  // plain copy/aggregate: out of scope
      if (need_status_api && ctx.status_apis.count(callee) == 0) continue;

      const std::string& name = t[name_pos].text;
      size_t uses = 0, voided = 0;
      for (size_t j = stmt_end + 1; j < fn.body_end; ++j) {
        if (!IsIdent(t, j) || t[j].text != name) continue;
        const std::string& p = t[j - 1].text;
        if (p == "." || p == "->" || p == "::") continue;  // other object
        ++uses;
        if (j >= 3 && p == ")" && t[j - 2].text == "void" &&
            t[j - 3].text == "(" && Is(t, j + 1, ";")) {
          ++voided;
        }
      }
      if (uses > 0 && uses != voided) continue;
      Report(scan, t[name_pos].line, kXtuDiscardedStatus,
             "Status/Result of '" + callee + "' parked in '" + name +
                 "' is " +
                 (uses == 0 ? "never inspected afterwards"
                            : "only ever (void)-discarded") +
                 "; check it or propagate it",
             out);
    }
  }
}

}  // namespace qpwm::lint::internal
