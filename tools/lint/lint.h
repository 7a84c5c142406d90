// qpwm_lint — project-invariant static analysis for the qpwm tree.
//
// The scheme's guarantees only hold if every fallible step is checked and
// every report is reproducible. This tool machine-enforces the invariant
// families that the compiler alone cannot (or that we want diagnosed before
// codegen):
//
//   error-discipline
//     discarded-status   a statement that calls a Status/Result-returning
//                        function and drops the value (incl. `(void)` casts)
//     xtu-discarded-status
//                        a Status/Result-returning call whose value is
//                        parked in a local (or auto alias) that is never
//                        inspected afterwards — the interprocedural
//                        complement to discarded-status (callee names come
//                        from the whole-project symbol index)
//     nodiscard-status   a header declaration returning Status/Result<T>
//                        without [[nodiscard]]
//     raw-status         Status(StatusCode..., ...) constructed outside the
//                        factories in util/status.h
//     bare-abort         abort/terminate/quick_exit/_Exit outside
//                        util/check.h / util/status.cc
//     bare-throw         `throw` anywhere (recoverable errors are Status;
//                        programmer errors are QPWM_CHECK)
//
//   determinism
//     nondeterministic-random
//                        rand/srand/std::random_device/time()/mt19937/
//                        default_random_engine outside util/random — all
//                        randomness flows through the seeded Rng
//     unordered-iter     range-for over an unordered_{map,set} — hash-order
//                        iteration feeding JSON reports, hashes or canonical
//                        forms breaks byte-identical output
//
//   parallel hygiene
//     parallel-mutation  a ParallelFor/ParallelMap/ParallelBlocks body that
//                        mutates state declared outside the lambda without
//                        the per-index slot pattern (`out[i] = ...`)
//     lock-discipline    a data member annotated QPWM_GUARDED_BY(mu) touched
//                        by a member function that neither locks `mu` nor is
//                        annotated QPWM_REQUIRES(mu); also (advisory shape)
//                        a class that owns a mutex yet annotates none of its
//                        members — the discipline that keeps the 1-vs-N
//                        thread byte-identity contract honest (the PR-6
//                        missing-mutex class)
//
//   lifetime
//     view-escape        a view-typed value (TupleRef/TupleList/span/
//                        string_view/DenseWeightView/WitnessPlan or any
//                        QPWM_VIEW_TYPE class) stored in a member without a
//                        QPWM_VIEW_OF(owner) annotation, returned rooted at
//                        a function-local owner, or captured by reference in
//                        a returned lambda — the PR-3 dangling-view class
//
//   flat storage
//     legacy-tuple-vector
//                        a by-value std::vector<Tuple> declaration in library
//                        code (src/qpwm/) outside structure/ — tuples live in
//                        the relations' flat CSR store (advisory: cold paths
//                        allowlist with a reason)
//
// Findings on a line can be waived with a trailing (or immediately
// preceding) comment:  // qpwm-lint: allow(rule-id[,rule-id...]) — reason
//
// Architecture: a TWO-PASS, cross-translation-unit analysis. Pass 1
// tokenizes every file and builds a project symbol index (Status APIs,
// unordered-container names, classes with their members/annotations,
// functions with their body spans, view-like types). Pass 2 re-walks each
// file's tokens and runs the rule families against the merged index, so a
// rule firing in one TU can depend on declarations made in another (a
// guarded member declared in a header is enforced in the .cc that touches
// it). Every run
// scans the whole file set; there is no cache between runs.
//
// The analysis is a tokenizer plus pattern rules, not a full parser: it is
// deliberately conservative, and the allowlist is the escape hatch for the
// few sites where hash-order, shared state or a stored view is provably
// benign.
#ifndef QPWM_TOOLS_LINT_LINT_H_
#define QPWM_TOOLS_LINT_LINT_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace qpwm::lint {

// --- Rule ids ---------------------------------------------------------------

inline constexpr char kDiscardedStatus[] = "discarded-status";
inline constexpr char kXtuDiscardedStatus[] = "xtu-discarded-status";
inline constexpr char kNodiscardStatus[] = "nodiscard-status";
inline constexpr char kRawStatus[] = "raw-status";
inline constexpr char kBareAbort[] = "bare-abort";
inline constexpr char kBareThrow[] = "bare-throw";
inline constexpr char kNondeterministicRandom[] = "nondeterministic-random";
inline constexpr char kUnorderedIter[] = "unordered-iter";
inline constexpr char kParallelMutation[] = "parallel-mutation";
inline constexpr char kLegacyTupleVector[] = "legacy-tuple-vector";
inline constexpr char kViewEscape[] = "view-escape";
inline constexpr char kLockDiscipline[] = "lock-discipline";

/// All rule ids, for --help and allow() validation.
const std::vector<std::string>& AllRules();

/// True for the advisory rules that only fail the run under --strict.
bool IsAdvisoryRule(std::string_view rule);

// --- Lexer ------------------------------------------------------------------

struct Token {
  enum class Kind {
    kIdent,   // identifiers and keywords
    kNumber,  // numeric literals
    kPunct,   // punctuation; `::` is a single token
    kAttr,    // a whole [[...]] attribute, text = inner content
  };
  Kind kind;
  std::string text;
  int line;
};

/// One tokenized source file. String/char literals and preprocessor
/// directives produce no tokens; comments contribute only allow() pragmas,
/// and #include "..." directives are recorded for cross-file name scoping.
struct FileScan {
  std::string path;
  std::vector<Token> tokens;
  // Pragma on line L waives the listed rules on lines L and L+1.
  std::map<int, std::set<std::string>> allows;
  // Quoted-include paths, as written (e.g. "qpwm/util/status.h").
  std::vector<std::string> includes;
};

/// Tokenizes `src`; never fails (unterminated constructs end the scan).
FileScan ScanSource(std::string path, std::string_view src);

// --- Pass 1: the project symbol index ---------------------------------------

inline constexpr size_t kNoBody = static_cast<size_t>(-1);

/// One data member of an indexed class, with its lint annotations.
struct MemberSym {
  std::string name;
  std::string type;  // leading type tokens joined by ' ' (diagnostic)
  int line = 0;
  bool is_mutable = false;
  bool is_static = false;
  bool is_mutex = false;   // type mentions Mutex / mutex
  bool is_atomic = false;  // type mentions atomic
  bool has_view_of = false;       // QPWM_VIEW_OF(...) present
  std::string guarded_by;         // mutex name from QPWM_GUARDED_BY, or ""
};

/// One function/method, with the per-body facts the cross-TU rules need.
/// Declarations and definitions of the same method merge in the index.
struct FunctionSym {
  std::string class_name;  // "" for free functions; "Outer::Nested" possible
  std::string name;
  int line = 0;
  bool is_definition = false;
  bool is_ctor_or_dtor = false;
  /// Mutex names from QPWM_REQUIRES(...) on the declaration or definition.
  std::set<std::string> requires_mutexes;
  /// Token span of the body in the declaring file's scan (kNoBody when
  /// declaration-only).
  size_t body_begin = kNoBody;
  size_t body_end = kNoBody;
  /// Token span of the parameter list `( ... )`.
  size_t params_begin = kNoBody;
  size_t params_end = kNoBody;
  /// Leading return-type tokens (empty for ctors/dtors/operators).
  std::vector<std::string> return_tokens;
};

/// One class/struct with a body, possibly nested ("Outer::Nested").
struct ClassSym {
  std::string name;
  int line = 0;
  bool is_view_type = false;  // QPWM_VIEW_TYPE marker present
  std::vector<MemberSym> members;
};

/// Everything pass 1 extracts from one file. Pure function of the token
/// stream.
struct FileSymbols {
  std::string path;
  std::set<std::string> status_apis;
  std::set<std::string> unordered_names;
  std::vector<ClassSym> classes;
  std::vector<FunctionSym> functions;
};

/// Structural scan of one file: classes (with members and annotations) and
/// functions (with spans and body facts). Exposed for the index self-tests.
FileSymbols CollectFileSymbols(const FileScan& scan);

/// The merged cross-file context both passes share.
struct LintContext {
  // Function names declared (anywhere in the set) to return Status or
  // Result<...>; calls to these may not discard the value. Project-wide, so
  // function names must be collision-free across the tree (rename rather
  // than allowlist when two unrelated APIs share a name).
  std::set<std::string> status_apis;
  // Variable/member names declared with an unordered_{map,set} type, keyed
  // by the normalized path of the declaring file. A file sees its own names
  // plus those of headers it #includes.
  std::map<std::string, std::set<std::string>> unordered_by_file;
  // Classes merged by (possibly nested) name across every TU.
  std::map<std::string, ClassSym> classes;
  // Method facts merged by "Class::name" (or bare name for free functions):
  // a declaration in a header and a definition in a .cc contribute to one
  // entry, so QPWM_REQUIRES on the declaration is honored at the definition.
  std::map<std::string, FunctionSym> functions;
  // View-like type names: the builtin set plus every QPWM_VIEW_TYPE class.
  // Unqualified (last component) names.
  std::set<std::string> view_types;
  bool finalized = false;
};

/// Merges one file's symbols into the context.
void MergeSymbols(const FileSymbols& syms, LintContext& ctx);

/// Pass 1 over one file: CollectFileSymbols + MergeSymbols. Returns the
/// file's symbols, whose token spans pass 2 reads (AnalyzeFile).
FileSymbols CollectContext(const FileScan& scan, LintContext& ctx);

/// Closes the index after every file merged: seeds the builtin view types
/// and adds QPWM_VIEW_TYPE classes. Must run before AnalyzeFile.
void FinalizeContext(LintContext& ctx);

// --- Pass 2: analysis --------------------------------------------------------

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

/// Per-rule wall time accumulated across files, in milliseconds.
using RuleTimings = std::map<std::string, double>;

/// Pass 2: runs every rule over `scan` against the finalized context,
/// appending findings (already filtered through the file's allow() pragmas).
/// `syms` is the file's pass-1 scan (CollectContext's result): the cross-TU
/// rules need its live token spans, which the merged context drops. When
/// `timings` is given, each rule family's wall time is accumulated.
void AnalyzeFile(const FileScan& scan, const FileSymbols& syms, const LintContext& ctx,
                 std::vector<Finding>& out, RuleTimings* timings = nullptr);

// --- Driver -----------------------------------------------------------------

struct DriverOptions {
  bool strict = false;
  std::string root = ".";               // tree to walk when no paths given
  std::string compile_commands;         // optional compile_commands.json
  std::string report;                   // optional JSON report path
  std::vector<std::string> paths;       // explicit files/dirs to lint
};

struct DriverResult {
  std::vector<Finding> errors;    // fail the run
  std::vector<Finding> warnings;  // advisory (errors under --strict)
  size_t files_scanned = 0;
  RuleTimings rule_ms;
  double index_ms = 0.0;  // pass 1 (scan + merge + finalize)
  double total_ms = 0.0;
};

/// Collects the file set (explicit paths, else compile_commands + a walk of
/// src/tools/tests/bench/examples under root), runs both passes, and splits
/// findings by severity. Returns false on I/O errors (unreadable
/// compile_commands or an explicit path that does not exist).
bool RunLint(const DriverOptions& opt, DriverResult& result);

/// JSON report schema version; bump on any shape change and document in
/// docs/static-analysis.md.
inline constexpr int kReportSchemaVersion = 5;

/// Serializes findings as a JSON report. Returns false if unwritable.
bool WriteReport(const std::string& path, const DriverResult& result);

}  // namespace qpwm::lint

#endif  // QPWM_TOOLS_LINT_LINT_H_
