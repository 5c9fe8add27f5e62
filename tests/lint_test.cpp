// Self-test for tools/ds_lint: the fixture tree under
// tests/lint_fixtures/ is a miniature repo in which every violation is
// deliberate, and expected.txt is the exact `file:line: rule` manifest
// the linter must emit — no more (over-firing on strings, comments,
// member calls, suppressed lines) and no less (a rule going blind).
//
// The real-tree gate is a separate ctest entry (lint_tree) and a
// build-time custom target; this suite pins the rules themselves.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct LintRun {
  std::vector<std::string> lines;  // stdout, line-split
  int exit_code = -1;
};

/// Run ds_lint with `args`, capture stdout and exit status.
LintRun run_lint(const std::string& args) {
  const std::string cmd = std::string(DS_LINT_BIN) + " " + args + " 2>/dev/null";
  LintRun result;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return result;
  char buf[1024];
  std::string out;
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  std::istringstream stream(out);
  std::string line;
  while (std::getline(stream, line)) {
    if (!line.empty()) result.lines.push_back(line);
  }
  return result;
}

/// `file:line: rule: message` -> `file:line: rule` (the manifest form).
std::string diagnostic_key(const std::string& line) {
  // The rule name is the third ':'-delimited field; the message after it
  // may itself contain colons.
  std::size_t colon = line.find(": ");             // after file:line
  if (colon == std::string::npos) return line;
  colon = line.find(": ", colon + 2);              // after rule
  if (colon == std::string::npos) return line;
  return line.substr(0, colon);
}

std::vector<std::string> load_manifest(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') lines.push_back(line);
  }
  return lines;
}

TEST(DsLint, FixtureTreeMatchesManifestExactly) {
  const LintRun run = run_lint(std::string("--root ") + DS_LINT_FIXTURE_DIR);
  EXPECT_EQ(run.exit_code, 1) << "fixtures must lint dirty";

  std::vector<std::string> got;
  got.reserve(run.lines.size());
  for (const std::string& line : run.lines) got.push_back(diagnostic_key(line));

  const std::vector<std::string> want =
      load_manifest(std::string(DS_LINT_FIXTURE_DIR) + "/expected.txt");
  ASSERT_FALSE(want.empty()) << "expected.txt missing or empty";

  // Exact, ordered comparison: the linter sorts by (file, line, rule),
  // so any drift — a new finding, a lost finding, an off-by-one line —
  // shows as a diff here.
  EXPECT_EQ(got, want);
}

TEST(DsLint, RuleFilterRestrictsFindings) {
  const LintRun run =
      run_lint(std::string("--root ") + DS_LINT_FIXTURE_DIR + " --rule pragma-once");
  EXPECT_EQ(run.exit_code, 1);
  ASSERT_EQ(run.lines.size(), 1u);
  EXPECT_EQ(diagnostic_key(run.lines[0]), "src/hw/no_pragma_once.h:1: pragma-once");
}

TEST(DsLint, AllowlistedDirectoryLintsClean) {
  // src/obs/ owns wall timing: the registry's file-scope allowlist must
  // silence no-wallclock there with no suppression comments in the file.
  const LintRun run = run_lint(std::string("--root ") + DS_LINT_FIXTURE_DIR + " " +
                               DS_LINT_FIXTURE_DIR + "/src/obs");
  EXPECT_EQ(run.exit_code, 0) << (run.lines.empty() ? "" : run.lines[0]);
  EXPECT_TRUE(run.lines.empty());
}

TEST(DsLint, ListRulesCoversRegistry) {
  const LintRun run = run_lint("--list-rules");
  EXPECT_EQ(run.exit_code, 0);
  std::vector<std::string> names;
  names.reserve(run.lines.size());
  for (const std::string& line : run.lines) {
    names.push_back(line.substr(0, line.find(' ')));
  }
  const std::vector<std::string> want = {
      "no-wallclock",        "no-ambient-rng",   "no-unordered-iteration",
      "no-std-function-hot-path", "no-alloc-markers", "include-hygiene",
      "pragma-once",         "include-layering", "hot-path-reachability",
      "concurrency-purity",  "test-only-api",    "suppression-hygiene",
  };
  EXPECT_EQ(names, want);
}

TEST(DsLint, TestOnlyApiReadsTheWholeTreeOnAPartialRun) {
  // Linting one header alone: its .cpp, perfbench/ and tests/ are read
  // as references only, so the findings are exactly the full run's.
  const LintRun run = run_lint(std::string("--root ") + DS_LINT_FIXTURE_DIR + " " +
                               DS_LINT_FIXTURE_DIR + "/src/study/api_surface.h");
  EXPECT_EQ(run.exit_code, 1);
  std::vector<std::string> got;
  for (const std::string& line : run.lines) got.push_back(diagnostic_key(line));
  const std::vector<std::string> want = {
      "src/study/api_surface.h:20: test-only-api",
      "src/study/api_surface.h:21: test-only-api",
  };
  EXPECT_EQ(got, want);
}

}  // namespace
