// Rule registry for the multi-pass framework.
//
// Two pass shapes share one registry:
//   * file-local rules (`scan_file`) — run once per indexed file whose
//     path passes `applies`; these are the original seven determinism
//     rules, migrated onto the shared token stream;
//   * whole-program passes (`scan_tree`) — run once over the full
//     FileIndex (include-graph layering, hot-path call-graph
//     reachability, concurrency purity).
//
// Every pass emits RAW findings: the driver applies suppressions and
// file-scope allowlists afterwards, so the suppression-hygiene
// meta-rule can audit which allow() sites actually earn their keep.
// A pass that wants a finding exempt from per-line suppression (the
// hygiene findings themselves) sets Finding::unsuppressable.
//
// The reachability pass deliberately emits findings under the rule
// names it upgrades (no-alloc-markers, no-ambient-rng, no-wallclock):
// a cross-TU hot-path allocation IS a no-alloc-markers violation, just
// found further from the region, and suppressing it uses the same
// allow() spelling. The pass itself still has a registry entry
// (hot-path-reachability) for --list-rules discoverability.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "lint/index.h"
#include "lint/source.h"

namespace lint {

struct Finding {
  std::string file;
  std::size_t line = 0;  // 1-based
  std::string rule;
  std::string message;
  // Call chain for reachability findings, hop by hop (rendered as an
  // indented `via …` line in text output, an array in JSON).
  std::vector<std::string> chain;
  bool unsuppressable = false;

  bool operator<(const Finding& other) const {
    if (file != other.file) return file < other.file;
    if (line != other.line) return line < other.line;
    return rule < other.rule;
  }
};

using Emit = std::vector<Finding>;

/// Raw-emit helper: 0-based line in, 1-based line recorded.
void emit(Emit& out, const SourceFile& src, std::size_t line_index, const char* rule,
          std::string message);

/// `'text'` followed by `suffix` inside the quotes (`'rand()'`). Built
/// by appending: GCC 12 at -O3 misreads `"'" + std::string(…)` as an
/// overlapping copy (-Wrestrict).
std::string quoted(std::string_view text, std::string_view suffix = {});

struct Rule {
  const char* name;
  const char* summary;
  // Exactly one of scan_file / scan_tree is set.
  bool (*applies)(const std::string& path);            // scan_file only
  void (*scan_file)(const SourceFile&, Emit&);
  void (*scan_tree)(const FileIndex&, Emit&);
};

const std::vector<Rule>& registry();
bool rule_exists(const std::string& name);

// --- shared violation detectors -------------------------------------------
// Used by both the region-local no-alloc-markers rule and the cross-TU
// reachability pass (and mirrored by the ambient-RNG / wallclock
// scans). `sink` receives (token_index, rule, message).
using DetectorSink = std::function<void(std::size_t, const char*, std::string)>;

/// Allocation markers in [begin, end): `new`, the make_/malloc family,
/// and container-growth member calls.
void detect_alloc_markers(const SourceFile& src, std::size_t begin, std::size_t end,
                          const DetectorSink& sink);
/// Ambient randomness in [begin, end): engine types and rand()-family
/// calls in call position.
void detect_ambient_rng(const SourceFile& src, std::size_t begin, std::size_t end,
                        const DetectorSink& sink);
/// Host-clock reads in [begin, end): chrono clock types, POSIX time
/// calls, and bare time()/clock() in call position.
void detect_wallclock(const SourceFile& src, std::size_t begin, std::size_t end,
                      const DetectorSink& sink);

// File-scope allowlists shared between the local rules and the
// reachability pass (which honours them for the file containing the
// violation — obs/ owns wall timing even when reached from a hot path).
bool wallclock_applies(const std::string& path);
bool rng_applies(const std::string& path);

// Hook for the layering pass: the include-graph JSON exporter lives
// beside the layer table so the two can never drift.
void write_include_graph_json(const FileIndex& index, std::FILE* out);

}  // namespace lint
