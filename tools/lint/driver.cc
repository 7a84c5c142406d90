// File discovery and the two-pass run for qpwm_lint.
//
// The file set is the union of the TUs named in compile_commands.json (when
// given) and a walk of src/tools/tests/bench/examples under --root picking up
// headers and sources. Explicit paths, files or directories, bypass the
// walk's fixture exclusion (build trees are still skipped), which is how the
// self-tests lint known-bad snippets.
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "lint.h"
#include "qpwm/util/json.h"

namespace qpwm::lint {
namespace {

namespace fs = std::filesystem;

bool IsSourceFile(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp" || ext == ".hpp";
}

bool IsBuildTree(const std::string& path) {
  return path.find("/build") != std::string::npos || path.find("build/") == 0;
}

bool IsExcluded(const std::string& path) {
  // Known-bad lint fixtures and build trees are never part of a tree walk.
  return path.find("lint_fixtures") != std::string::npos || IsBuildTree(path);
}

bool ReadFile(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::stringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

// Collects the source files under `dir`, skipping build trees and, with
// `skip_fixtures`, the lint fixtures.
void WalkDir(const fs::path& dir, bool skip_fixtures,
             std::vector<std::string>& out) {
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; it != end;
       it.increment(ec)) {
    if (ec) break;
    if (!it->is_regular_file(ec) || !IsSourceFile(it->path())) continue;
    std::string p = it->path().generic_string();
    if (skip_fixtures ? IsExcluded(p) : IsBuildTree(p)) continue;
    out.push_back(std::move(p));
  }
}

// Pulls every "file" value out of compile_commands.json with a minimal
// string scanner (the format is machine-written; full JSON is not needed).
bool FilesFromCompileCommands(const std::string& path,
                              std::vector<std::string>& out) {
  std::string text;
  if (!ReadFile(path, text)) return false;
  size_t i = 0;
  while ((i = text.find("\"file\"", i)) != std::string::npos) {
    i += 6;
    while (i < text.size() && (text[i] == ' ' || text[i] == ':')) ++i;
    if (i >= text.size() || text[i] != '"') continue;
    ++i;
    std::string value;
    while (i < text.size() && text[i] != '"') {
      if (text[i] == '\\' && i + 1 < text.size()) ++i;
      value += text[i++];
    }
    if (IsSourceFile(fs::path(value)) && !IsExcluded(value)) {
      out.push_back(std::move(value));
    }
  }
  return true;
}

}  // namespace

bool RunLint(const DriverOptions& opt, DriverResult& result) {
  std::vector<std::string> files;
  if (!opt.paths.empty()) {
    for (const std::string& p : opt.paths) {
      std::error_code ec;
      if (fs::is_directory(p, ec)) {
        WalkDir(p, /*skip_fixtures=*/false, files);
      } else if (fs::is_regular_file(p, ec)) {
        files.push_back(p);  // explicit files are always linted
      } else {
        return false;
      }
    }
  } else {
    if (!opt.compile_commands.empty() &&
        !FilesFromCompileCommands(opt.compile_commands, files)) {
      return false;
    }
    for (const char* sub : {"src", "tools", "tests", "bench", "examples"}) {
      const fs::path dir = fs::path(opt.root) / sub;
      std::error_code ec;
      if (fs::is_directory(dir, ec)) WalkDir(dir, /*skip_fixtures=*/true, files);
    }
  }
  // Dedup by canonical path so compile_commands + walk overlap lints once.
  std::vector<std::pair<std::string, std::string>> canon;  // (canonical, as-given)
  for (std::string& f : files) {
    std::error_code ec;
    fs::path c = fs::weakly_canonical(f, ec);
    canon.emplace_back(ec ? f : c.generic_string(), std::move(f));
  }
  std::sort(canon.begin(), canon.end());
  canon.erase(std::unique(canon.begin(), canon.end(),
                          [](const auto& a, const auto& b) {
                            return a.first == b.first;
                          }),
              canon.end());

  const auto run_start = std::chrono::steady_clock::now();
  const auto ms_since = [](std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };

  // Pass 1: scan every file and merge its symbols into the shared context,
  // keeping each file's symbols for pass 2.
  const auto pass1_start = std::chrono::steady_clock::now();
  std::vector<FileScan> scans;
  std::vector<FileSymbols> symbols;
  scans.reserve(canon.size());
  symbols.reserve(canon.size());
  LintContext ctx;
  for (const auto& [canonical, given] : canon) {
    std::string text;
    if (!ReadFile(given, text)) continue;  // e.g. removed generated TU
    scans.push_back(ScanSource(given, text));
    symbols.push_back(CollectContext(scans.back(), ctx));
  }
  FinalizeContext(ctx);
  result.index_ms = ms_since(pass1_start);
  result.files_scanned = scans.size();

  // Pass 2: every rule over every file, against the merged context.
  std::vector<Finding> findings;
  for (size_t i = 0; i < scans.size(); ++i) {
    AnalyzeFile(scans[i], symbols[i], ctx, findings, &result.rule_ms);
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  for (Finding& f : findings) {
    (IsAdvisoryRule(f.rule) ? result.warnings : result.errors)
        .push_back(std::move(f));
  }
  result.total_ms = ms_since(run_start);
  return true;
}

bool WriteReport(const std::string& path, const DriverResult& result) {
  JsonWriter w;
  auto write_findings = [&](const char* key, const std::vector<Finding>& fs) {
    w.Key(key).BeginArray();
    for (const Finding& f : fs) {
      w.BeginObject();
      w.Key("file").String(f.file);
      w.Key("line").Int(f.line);
      w.Key("rule").String(f.rule);
      w.Key("message").String(f.message);
      w.EndObject();
    }
    w.EndArray();
  };
  w.BeginObject();
  w.Key("schema_version").Int(kReportSchemaVersion);
  w.Key("files_scanned").UInt(result.files_scanned);
  w.Key("index_ms").Double(result.index_ms);
  w.Key("total_ms").Double(result.total_ms);
  w.Key("rule_ms").BeginObject();
  for (const auto& [rule, ms] : result.rule_ms) w.Key(rule).Double(ms);
  w.EndObject();
  write_findings("errors", result.errors);
  write_findings("warnings", result.warnings);
  w.EndObject();
  return WriteJsonFile(path, w);
}

}  // namespace qpwm::lint
