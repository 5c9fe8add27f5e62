// Orchestration for the multi-pass linter: build the FileIndex once,
// run every registered pass over it, then post-process —
//
//   raw findings
//     → dedup by (file, line, rule), preferring the earliest pass
//       (region-local findings beat reachability duplicates)
//     → per-line allow() suppression + usage tracking
//     → suppression-hygiene findings from the usage ledger
//     → sort, optional --rule filter, text or JSON rendering
//
// The CLI in tools/ds_lint.cpp is a thin flag parser around run().
#pragma once

#include <filesystem>
#include <string>
#include <vector>

namespace lint {

struct Options {
  std::filesystem::path root = ".";
  std::vector<std::filesystem::path> paths;  // empty = default walk
  std::string only_rule;                     // empty = all rules
  bool json = false;                         // --format=json
  std::string include_graph_path;            // --include-graph FILE ("-" = stdout)
};

inline constexpr int kExitClean = 0;
inline constexpr int kExitFindings = 1;
inline constexpr int kExitUsage = 64;  // EX_USAGE; also config/IO errors, no src/, 0 files

/// Run the configured lint. Renders findings to stdout, a one-line
/// run summary (file count, finding count, wall time) to stderr, and
/// returns the exit code.
int run(const Options& options);

/// Print `name  summary` per registered rule.
void list_rules();

}  // namespace lint
