// qpwm_lint CLI. See lint.h for the rule catalog.
//
// Exit codes: 0 = clean, 1 = findings, 2 = usage or I/O error. Advisory
// rules (unordered-iter, parallel-mutation) only affect the exit code under
// --strict; CI runs --strict so every finding gates.
#include <iostream>
#include <string>
#include <vector>

#include "lint.h"

namespace {

int Usage(int code) {
  std::cerr
      << "usage: qpwm_lint [--strict] [--root DIR]\n"
         "       [--compile-commands build/compile_commands.json]\n"
         "       [--report lint_report.json] [paths...]\n"
         "\n"
         "Lints the qpwm tree (or the given files/dirs) for project\n"
         "invariants. Rules:\n";
  for (const std::string& rule : qpwm::lint::AllRules()) {
    std::cerr << "  " << rule
              << (qpwm::lint::IsAdvisoryRule(rule) ? "  (advisory)" : "")
              << "\n";
  }
  std::cerr << "Waive one line:  // qpwm-lint: allow(rule-id) -- reason\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  qpwm::lint::DriverOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return Usage(0);
    if (arg == "--strict") {
      opt.strict = true;
      continue;
    }
    auto value = [&](std::string& slot) -> bool {
      if (i + 1 >= argc) {
        std::cerr << arg << " requires a value\n";
        return false;
      }
      slot = argv[++i];
      return true;
    };
    if (arg == "--root") {
      if (!value(opt.root)) return Usage(2);
    } else if (arg == "--compile-commands") {
      if (!value(opt.compile_commands)) return Usage(2);
    } else if (arg == "--report") {
      if (!value(opt.report)) return Usage(2);
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown flag " << arg << "\n";
      return Usage(2);
    } else {
      opt.paths.push_back(arg);
    }
  }

  qpwm::lint::DriverResult result;
  if (!qpwm::lint::RunLint(opt, result)) {
    std::cerr << "qpwm_lint: cannot read an input (path or compile_commands)\n";
    return 2;
  }
  for (const auto& f : result.errors) {
    std::cerr << f.file << ":" << f.line << ": error: [" << f.rule << "] "
              << f.message << "\n";
  }
  for (const auto& f : result.warnings) {
    std::cerr << f.file << ":" << f.line << ": "
              << (opt.strict ? "error" : "warning") << ": [" << f.rule << "] "
              << f.message << "\n";
  }
  if (!opt.report.empty() && !qpwm::lint::WriteReport(opt.report, result)) {
    std::cerr << "qpwm_lint: cannot write report " << opt.report << "\n";
    return 2;
  }
  const size_t gating =
      result.errors.size() + (opt.strict ? result.warnings.size() : 0);
  std::cerr << "qpwm_lint: " << result.files_scanned << " files, "
            << result.errors.size() << " errors, " << result.warnings.size()
            << " warnings" << (opt.strict ? " (strict)" : "") << " in "
            << static_cast<long>(result.total_ms) << " ms\n";
  return gating == 0 ? 0 : 1;
}
