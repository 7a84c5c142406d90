// Self-tests for the qpwm_lint library: tokenizer behavior, each rule's
// positive and negative cases, pragma waiving, and the cross-file scoping
// (status_apis is global, unordered names are include-scoped).
//
// The fixture files in tests/lint_fixtures/ are exercised end-to-end through
// the ctest entries in tests/CMakeLists.txt (each bad fixture must fail
// `qpwm_lint --strict`, the good one must pass); these tests pin the library
// semantics those gates rely on.
#include "lint.h"

#include <gtest/gtest.h>

namespace qpwm::lint {
namespace {

// Lints `src` as a standalone file: context built from this file only.
std::vector<Finding> Analyze(const std::string& path, std::string_view src) {
  FileScan scan = ScanSource(path, src);
  LintContext ctx;
  const FileSymbols syms = CollectContext(scan, ctx);
  FinalizeContext(ctx);
  std::vector<Finding> out;
  AnalyzeFile(scan, syms, ctx, out);
  return out;
}

// Lints `src` with extra context files (path, source) collected first.
std::vector<Finding> AnalyzeWith(
    const std::vector<std::pair<std::string, std::string>>& context_files,
    const std::string& path, std::string_view src) {
  LintContext ctx;
  for (const auto& [p, s] : context_files) {
    FileScan scan = ScanSource(p, s);
    CollectContext(scan, ctx);
  }
  FileScan scan = ScanSource(path, src);
  const FileSymbols syms = CollectContext(scan, ctx);
  FinalizeContext(ctx);
  std::vector<Finding> out;
  AnalyzeFile(scan, syms, ctx, out);
  return out;
}

bool HasRule(const std::vector<Finding>& fs, std::string_view rule) {
  for (const Finding& f : fs) {
    if (f.rule == rule) return true;
  }
  return false;
}

// --- Tokenizer ---------------------------------------------------------------

TEST(LintLexer, StringsCommentsAndPreprocessorProduceNoTokens) {
  FileScan scan = ScanSource("a.cc",
                             "#include <x>\n"
                             "// abort();\n"
                             "/* throw; */\n"
                             "const char* s = \"abort(); throw\";\n"
                             "char c = '\\'';\n");
  for (const Token& t : scan.tokens) {
    EXPECT_NE(t.text, "abort") << "banned name leaked from line " << t.line;
    EXPECT_NE(t.text, "throw");
  }
}

TEST(LintLexer, RawStringsAreInvisible) {
  FileScan scan = ScanSource("a.cc", "auto s = R\"(rand() throw)\";\nint z;\n");
  for (const Token& t : scan.tokens) {
    EXPECT_NE(t.text, "rand");
    EXPECT_NE(t.text, "throw");
  }
  // Line counting survives the raw string.
  EXPECT_EQ(scan.tokens.back().line, 2);
}

TEST(LintLexer, AttributeIsASingleToken) {
  FileScan scan = ScanSource("a.h", "[[nodiscard]] Status F();\n");
  ASSERT_FALSE(scan.tokens.empty());
  EXPECT_EQ(scan.tokens[0].kind, Token::Kind::kAttr);
  EXPECT_EQ(scan.tokens[0].text, "nodiscard");
}

TEST(LintLexer, PragmaRegistersRulesForItsLine) {
  FileScan scan = ScanSource(
      "a.cc", "int x;\n// qpwm-lint: allow(bare-throw, unordered-iter) -- why\n");
  ASSERT_TRUE(scan.allows.count(2));
  EXPECT_TRUE(scan.allows[2].count("bare-throw"));
  EXPECT_TRUE(scan.allows[2].count("unordered-iter"));
}

TEST(LintLexer, QuotedIncludesAreRecorded) {
  FileScan scan = ScanSource("a.cc",
                             "#include \"qpwm/util/status.h\"\n"
                             "#include <vector>\n");
  ASSERT_EQ(scan.includes.size(), 1u);
  EXPECT_EQ(scan.includes[0], "qpwm/util/status.h");
}

// --- error-discipline --------------------------------------------------------

TEST(LintRules, DiscardedStatusCallFlagged) {
  auto fs = Analyze("a.cc",
                    "Status Do();\n"
                    "void F() { Do(); }\n");
  EXPECT_TRUE(HasRule(fs, kDiscardedStatus));
}

TEST(LintRules, VoidCastStillFlagged) {
  auto fs = Analyze("a.cc",
                    "Status Do();\n"
                    "void F() { (void)Do(); }\n");
  EXPECT_TRUE(HasRule(fs, kDiscardedStatus));
}

TEST(LintRules, HandledStatusNotFlagged) {
  auto fs = Analyze("a.cc",
                    "Status Do();\n"
                    "Status F() {\n"
                    "  Status s = Do();\n"
                    "  if (!s.ok()) return s;\n"
                    "  return Do();\n"
                    "}\n");
  EXPECT_FALSE(HasRule(fs, kDiscardedStatus));
}

TEST(LintRules, StatusApisAreGlobalAcrossFiles) {
  auto fs = AnalyzeWith({{"lib.h", "Result<int> Parse(int x);\n"}}, "use.cc",
                        "void F() { Parse(3); }\n");
  EXPECT_TRUE(HasRule(fs, kDiscardedStatus));
}

TEST(LintRules, MemberChainFinalCalleeDecides) {
  // The chain ends in a Status-returning member: flagged.
  auto fs = AnalyzeWith({{"lib.h", "Status Commit();\n"}}, "use.cc",
                        "void F(Txn& t) { t.handle().Commit(); }\n");
  EXPECT_TRUE(HasRule(fs, kDiscardedStatus));
  // Same chain but the final member is not fallible: clean.
  auto clean = AnalyzeWith({{"lib.h", "Status Commit();\n"}}, "use.cc",
                           "void F(Txn& t) { t.Commit().IgnoreError(); }\n");
  EXPECT_FALSE(HasRule(clean, kDiscardedStatus));
}

TEST(LintRules, NodiscardRequiredInHeadersOnly) {
  EXPECT_TRUE(HasRule(Analyze("a.h", "Status F();\n"), kNodiscardStatus));
  EXPECT_FALSE(
      HasRule(Analyze("a.h", "[[nodiscard]] Status F();\n"), kNodiscardStatus));
  EXPECT_FALSE(HasRule(Analyze("a.cc", "Status F() { return Status(); }\n"),
                       kNodiscardStatus));
}

TEST(LintRules, NodiscardSeesThroughSpecifiers) {
  EXPECT_TRUE(
      HasRule(Analyze("a.h", "static inline Status F();\n"), kNodiscardStatus));
  EXPECT_FALSE(
      HasRule(Analyze("a.h", "[[nodiscard]] static Result<int> F();\n"),
              kNodiscardStatus));
}

TEST(LintRules, RawStatusOutsideFactoriesFlagged) {
  EXPECT_TRUE(HasRule(
      Analyze("a.cc", "Status F() { return Status(StatusCode::kInternal, \"x\"); }\n"),
      kRawStatus));
  // The factory home is exempt.
  EXPECT_FALSE(HasRule(
      Analyze("src/qpwm/util/status.h",
              "Status F() { return Status(StatusCode::kInternal, \"x\"); }\n"),
      kRawStatus));
  // Factory calls are fine anywhere.
  EXPECT_FALSE(HasRule(
      Analyze("a.cc", "Status F() { return Status::Internal(\"x\"); }\n"),
      kRawStatus));
}

TEST(LintRules, AbortAndThrowFlagged) {
  EXPECT_TRUE(HasRule(Analyze("a.cc", "void F() { abort(); }\n"), kBareAbort));
  EXPECT_TRUE(HasRule(Analyze("a.cc", "void F() { throw 1; }\n"), kBareThrow));
  // check.h is the sanctioned abort site.
  EXPECT_FALSE(HasRule(
      Analyze("src/qpwm/util/check.h", "void F() { std::abort(); }\n"),
      kBareAbort));
}

// --- determinism -------------------------------------------------------------

TEST(LintRules, EntropySourcesFlaggedOutsideUtilRandom) {
  EXPECT_TRUE(HasRule(Analyze("a.cc", "std::mt19937 g(1);\n"),
                      kNondeterministicRandom));
  EXPECT_TRUE(HasRule(Analyze("a.cc", "int x = rand();\n"),
                      kNondeterministicRandom));
  EXPECT_FALSE(HasRule(Analyze("src/qpwm/util/random.h", "std::mt19937 g(1);\n"),
                       kNondeterministicRandom));
  // Member calls named rand() belong to the seeded Rng, not libc.
  EXPECT_FALSE(HasRule(Analyze("a.cc", "int x = rng.rand();\n"),
                       kNondeterministicRandom));
}

TEST(LintRules, UnorderedIterFlaggedForOwnAndIncludedNames) {
  const char* decl_and_loop =
      "std::unordered_map<int, int> m_;\n"
      "void F() { for (const auto& kv : m_) { (void)kv; } }\n";
  EXPECT_TRUE(HasRule(Analyze("a.cc", decl_and_loop), kUnorderedIter));

  // Declared in a header the .cc includes: still visible.
  auto fs = AnalyzeWith(
      {{"src/qpwm/foo/bar.h", "std::unordered_map<int, int> m_;\n"}},
      "src/qpwm/foo/bar.cc",
      "#include \"qpwm/foo/bar.h\"\n"
      "void F() { for (const auto& kv : m_) { (void)kv; } }\n");
  EXPECT_TRUE(HasRule(fs, kUnorderedIter));

  // Same variable name declared in an unrelated, un-included file: clean.
  auto clean = AnalyzeWith(
      {{"src/qpwm/foo/bar.h", "std::unordered_map<int, int> m_;\n"}},
      "src/qpwm/other/baz.cc",
      "std::vector<int> m_;\n"
      "void F() { for (const auto& kv : m_) { (void)kv; } }\n");
  EXPECT_FALSE(HasRule(clean, kUnorderedIter));
}

TEST(LintRules, NestedUnorderedInsideOrderedNotFlagged) {
  // The >> closes both templates; `groups` is a vector, iteration is fine.
  auto fs = Analyze("a.cc",
                    "std::vector<std::unordered_set<int>> groups;\n"
                    "void F() { for (const auto& g : groups) { (void)g; } }\n");
  EXPECT_FALSE(HasRule(fs, kUnorderedIter));
}

TEST(LintRules, AllowPragmaWaivesOnSameAndNextLine) {
  auto fs = Analyze("a.cc",
                    "std::unordered_map<int, int> m_;\n"
                    "void F() {\n"
                    "  // qpwm-lint: allow(unordered-iter) -- reduction\n"
                    "  for (const auto& kv : m_) { (void)kv; }\n"
                    "}\n");
  EXPECT_FALSE(HasRule(fs, kUnorderedIter));
}

// --- parallel hygiene --------------------------------------------------------

TEST(LintRules, ParallelBodyMutatingOuterStateFlagged) {
  auto fs = Analyze("a.cc",
                    "void F(std::vector<int>& xs) {\n"
                    "  int total = 0;\n"
                    "  ParallelFor(xs.size(), [&](size_t i) { total += xs[i]; });\n"
                    "}\n");
  EXPECT_TRUE(HasRule(fs, kParallelMutation));
}

TEST(LintRules, ParallelMutatorMemberCallFlagged) {
  auto fs = Analyze("a.cc",
                    "void F(size_t n, std::vector<int>& out) {\n"
                    "  ParallelFor(n, [&](size_t i) { out.push_back(int(i)); });\n"
                    "}\n");
  EXPECT_TRUE(HasRule(fs, kParallelMutation));
}

TEST(LintRules, PerIndexSlotWritesAreSanctioned) {
  auto fs = Analyze("a.cc",
                    "void F(size_t n, std::vector<int>& out) {\n"
                    "  ParallelFor(n, [&](size_t i) { out[i] = int(i); });\n"
                    "}\n");
  EXPECT_FALSE(HasRule(fs, kParallelMutation));
}

TEST(LintRules, LambdaLocalsIncludingCommaChainsAreFine) {
  auto fs = Analyze("a.cc",
                    "void F(size_t n) {\n"
                    "  ParallelFor(n, [&](size_t i) {\n"
                    "    size_t a = 0, b = 0;\n"
                    "    auto c = i;\n"
                    "    a += i; b++; ++c;\n"
                    "  });\n"
                    "}\n");
  EXPECT_FALSE(HasRule(fs, kParallelMutation));
}

TEST(LintRules, LegacyTupleVectorFlaggedInLibraryCode) {
  auto fs = Analyze("src/qpwm/core/foo.cc",
                    "void F() { std::vector<Tuple> rows; }\n");
  EXPECT_TRUE(HasRule(fs, kLegacyTupleVector));
  // Member storage materializes too.
  fs = Analyze("src/qpwm/core/foo.h",
               "struct C { std::vector<Tuple> rows_; };\n");
  EXPECT_TRUE(HasRule(fs, kLegacyTupleVector));
  // Returning a materialized answer set is the query API contract.
  fs = Analyze("src/qpwm/core/foo.h", "std::vector<Tuple> AllRows();\n");
  EXPECT_FALSE(HasRule(fs, kLegacyTupleVector));
}

TEST(LintRules, LegacyTupleVectorScopeAndBorrows) {
  // structure/ is the sanctioned home; tests/bench are out of scope.
  auto fs = Analyze("src/qpwm/structure/structure.cc",
                    "void F() { std::vector<Tuple> rows; }\n");
  EXPECT_FALSE(HasRule(fs, kLegacyTupleVector));
  fs = Analyze("tests/foo_test.cc", "void F() { std::vector<Tuple> rows; }\n");
  EXPECT_FALSE(HasRule(fs, kLegacyTupleVector));
  // Borrowing by reference and nested template arguments do not match.
  fs = Analyze("src/qpwm/core/foo.cc",
               "void F(const std::vector<Tuple>& rows);\n"
               "std::map<int, std::vector<Tuple>>* g;\n");
  EXPECT_FALSE(HasRule(fs, kLegacyTupleVector));
  // Pragma waives a deliberate cold-path materialization.
  fs = Analyze("src/qpwm/core/foo.cc",
               "// qpwm-lint: allow(legacy-tuple-vector) — cold path\n"
               "std::vector<Tuple> snapshot;\n");
  EXPECT_FALSE(HasRule(fs, kLegacyTupleVector));
}

// --- the symbol index (pass 1) -----------------------------------------------

TEST(LintIndex, ClassMembersAndAnnotationsExtracted) {
  FileSymbols syms = CollectFileSymbols(ScanSource(
      "a.h",
      "class CanonCache {\n"
      " public:\n"
      "  int Get();\n"
      " private:\n"
      "  mutable std::mutex mu_;\n"
      "  std::map<int, int> by_id_ QPWM_GUARDED_BY(mu_);\n"
      "  std::atomic<bool> sealed_{false};\n"
      "};\n"));
  ASSERT_EQ(syms.classes.size(), 1u);
  const ClassSym& cls = syms.classes[0];
  EXPECT_EQ(cls.name, "CanonCache");
  ASSERT_EQ(cls.members.size(), 3u);
  EXPECT_TRUE(cls.members[0].is_mutex);
  EXPECT_TRUE(cls.members[0].is_mutable);
  EXPECT_EQ(cls.members[1].name, "by_id_");
  EXPECT_EQ(cls.members[1].guarded_by, "mu_");
  EXPECT_EQ(cls.members[2].name, "sealed_");
  EXPECT_TRUE(cls.members[2].is_atomic);
}

TEST(LintIndex, FunctionsResolveAcrossDeclAndDefinition) {
  // QPWM_REQUIRES on the header declaration is honored at the out-of-line
  // definition through the merged per-key function entry.
  LintContext ctx;
  CollectContext(ScanSource("c.h",
                            "class C {\n"
                            "  void Locked() QPWM_REQUIRES(mu_);\n"
                            "  std::mutex mu_;\n"
                            "  int n_ QPWM_GUARDED_BY(mu_);\n"
                            "};\n"),
                 ctx);
  FileScan def = ScanSource("c.cc", "void C::Locked() { n_ += 1; }\n");
  const FileSymbols def_syms = CollectContext(def, ctx);
  FinalizeContext(ctx);
  ASSERT_TRUE(ctx.functions.count("C::Locked"));
  EXPECT_TRUE(ctx.functions["C::Locked"].requires_mutexes.count("mu_"));
  std::vector<Finding> out;
  AnalyzeFile(def, def_syms, ctx, out);
  EXPECT_FALSE(HasRule(out, kLockDiscipline));
}

TEST(LintIndex, ViewTypesAreBuiltinsPlusMarkedClasses) {
  LintContext ctx;
  CollectContext(ScanSource("v.h", "class QPWM_VIEW_TYPE WeightPeek {};\n"),
                 ctx);
  FinalizeContext(ctx);
  EXPECT_TRUE(ctx.view_types.count("TupleRef"));
  EXPECT_TRUE(ctx.view_types.count("string_view"));
  EXPECT_TRUE(ctx.view_types.count("WeightPeek"));
  // A member of the marked type is view-like in any other class.
  auto fs = AnalyzeWith({{"v.h", "class QPWM_VIEW_TYPE WeightPeek {};\n"}},
                        "u.h", "class Holder { WeightPeek peek_; };\n");
  EXPECT_TRUE(HasRule(fs, kViewEscape));
}

// --- lifetime: view-escape ---------------------------------------------------

TEST(LintRules, ViewMemberWithoutAnnotationFlagged) {
  auto fs = Analyze("a.h", "class H { TupleList rows_; };\n");
  EXPECT_TRUE(HasRule(fs, kViewEscape));
  auto clean =
      Analyze("a.h", "class H { TupleList rows_ QPWM_VIEW_OF(store_);\n"
                     "          std::vector<int> store_; };\n");
  EXPECT_FALSE(HasRule(clean, kViewEscape));
}

TEST(LintRules, ViewTypeClassesAreExemptFromMemberRule) {
  // A view of a view adds no lifetime edge — TupleList itself holds a span.
  auto fs = Analyze("a.h",
                    "class QPWM_VIEW_TYPE Cursor { TupleRef row_; };\n");
  EXPECT_FALSE(HasRule(fs, kViewEscape));
}

TEST(LintRules, ReturnViewOfLocalOwnerFlagged) {
  // The minimized PR-3 shape: a view into a function-local Structure.
  auto fs = Analyze("a.cc",
                    "TupleList F() {\n"
                    "  Structure g = Load();\n"
                    "  return g.relation(0).tuples();\n"
                    "}\n");
  EXPECT_TRUE(HasRule(fs, kViewEscape));
  // Views rooted at a parameter the caller owns are fine.
  auto clean = Analyze("a.cc",
                       "TupleList F(const Structure& g) {\n"
                       "  return g.relation(0).tuples();\n"
                       "}\n");
  EXPECT_FALSE(HasRule(clean, kViewEscape));
}

TEST(LintRules, ReturnedLambdaRefCaptureFlagged) {
  auto fs = Analyze("a.cc",
                    "auto F() { int n = 0; return [&n] { return n; }; }\n");
  EXPECT_TRUE(HasRule(fs, kViewEscape));
  auto clean = Analyze("a.cc",
                       "auto F() { int n = 0; return [n] { return n; }; }\n");
  EXPECT_FALSE(HasRule(clean, kViewEscape));
}

// --- parallel hygiene: lock-discipline ---------------------------------------

TEST(LintRules, GuardedMemberTouchedWithoutLockFlagged) {
  const char* header =
      "class C {\n"
      "  void Inc();\n"
      "  std::mutex mu_;\n"
      "  int n_ QPWM_GUARDED_BY(mu_);\n"
      "};\n";
  auto fs = AnalyzeWith({{"c.h", header}}, "c.cc",
                        "void C::Inc() { n_ += 1; }\n");
  EXPECT_TRUE(HasRule(fs, kLockDiscipline));
  auto locked = AnalyzeWith(
      {{"c.h", header}}, "c.cc",
      "void C::Inc() { std::lock_guard<std::mutex> l(mu_); n_ += 1; }\n");
  EXPECT_FALSE(HasRule(locked, kLockDiscipline));
  auto raii = AnalyzeWith({{"c.h", header}}, "c.cc",
                          "void C::Inc() { MutexLock l(mu_); n_ += 1; }\n");
  EXPECT_FALSE(HasRule(raii, kLockDiscipline));
}

TEST(LintRules, MutexWithNoGuardedMembersAdvisoryShape) {
  auto fs = Analyze("a.h",
                    "class C { std::mutex mu_; int n_; };\n");
  EXPECT_TRUE(HasRule(fs, kLockDiscipline));
  auto clean = Analyze("a.h",
                       "class C { std::mutex mu_;\n"
                       "          int n_ QPWM_GUARDED_BY(mu_); };\n");
  EXPECT_FALSE(HasRule(clean, kLockDiscipline));
}

// --- error-discipline: xtu-discarded-status ----------------------------------

TEST(LintRules, ParkedStatusNeverInspectedFlagged) {
  auto fs = Analyze("a.cc",
                    "Status Save(int);\n"
                    "void F() { Status s = Save(1); }\n");
  EXPECT_TRUE(HasRule(fs, kXtuDiscardedStatus));
  auto voided = Analyze("a.cc",
                        "Status Save(int);\n"
                        "void F() { Status s = Save(1); (void)s; }\n");
  EXPECT_TRUE(HasRule(voided, kXtuDiscardedStatus));
  auto checked = Analyze("a.cc",
                         "Status Save(int);\n"
                         "void F() { Status s = Save(1); if (!s.ok()) return; }\n");
  EXPECT_FALSE(HasRule(checked, kXtuDiscardedStatus));
}

TEST(LintRules, AutoAliasOnlyFlaggedForKnownStatusApis) {
  // The callee's Status return is declared in another file: the project
  // index makes the auto alias checkable.
  auto fs = AnalyzeWith({{"lib.h", "Status Flush();\n"}}, "use.cc",
                        "void F() { auto rc = Flush(); }\n");
  EXPECT_TRUE(HasRule(fs, kXtuDiscardedStatus));
  // Unknown callee: auto alias is out of scope.
  auto clean = Analyze("use.cc", "void F() { auto rc = Flush(); }\n");
  EXPECT_FALSE(HasRule(clean, kXtuDiscardedStatus));
}

// --- classification ----------------------------------------------------------

TEST(LintRules, AdvisorySplitMatchesRuleCatalog) {
  EXPECT_TRUE(IsAdvisoryRule(kUnorderedIter));
  EXPECT_TRUE(IsAdvisoryRule(kParallelMutation));
  EXPECT_TRUE(IsAdvisoryRule(kLegacyTupleVector));
  EXPECT_TRUE(IsAdvisoryRule(kViewEscape));
  EXPECT_TRUE(IsAdvisoryRule(kLockDiscipline));
  EXPECT_FALSE(IsAdvisoryRule(kDiscardedStatus));
  EXPECT_FALSE(IsAdvisoryRule(kBareThrow));
  EXPECT_FALSE(IsAdvisoryRule(kXtuDiscardedStatus));
  EXPECT_EQ(AllRules().size(), 12u);
}

}  // namespace
}  // namespace qpwm::lint
