// Whole-program file index: every lintable file under the walk, loaded
// and lexed exactly once, plus the two cross-TU structures the
// whole-program passes consume —
//
//   * the resolved #include graph over indexed src/ files (quoted
//     includes are root-relative per the single `-I src` model, so
//     "study/task.h" resolves to the indexed "src/study/task.h"), with
//     per-file transitive closures used both by the layering pass and
//     to scope call resolution to names actually visible to a TU;
//
//   * a lightweight function definition index (name → definitions with
//     token-span bodies), built by a heuristic recogniser over the
//     shared token stream. It is deliberately lexical: see DESIGN.md
//     §14 for the approximations and their false-negative envelope.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "lint/source.h"

namespace lint {

struct FunctionDef {
  std::uint32_t file = 0;       // index into FileIndex::files
  std::uint32_t name_line = 0;  // 0-based line of the definition's name
  std::uint32_t name_tok = 0;   // token index of the name
  std::string name;             // unqualified identifier
  std::uint32_t body_begin = 0;  // token range of the body, [begin, end)
  std::uint32_t body_end = 0;
};

struct FileIndex {
  std::filesystem::path root;
  std::vector<SourceFile> files;           // sorted by path
  std::map<std::string, std::uint32_t> by_path;
  // Files lexed only so test-only-api can count their references: no
  // rule lints them, and they are not in the include graph or defs.
  std::vector<SourceFile> reference_files;

  // include_edges[f] = indices of files f includes (resolved, indexed
  // files only), parallel with include_edge_lines (0-based line of the
  // directive).
  std::vector<std::vector<std::uint32_t>> include_edges;
  std::vector<std::vector<std::uint32_t>> include_edge_lines;
  // include_closure[f] = every file transitively reachable from f via
  // include_edges (excluding f itself), sorted.
  std::vector<std::vector<std::uint32_t>> include_closure;

  std::vector<FunctionDef> defs;
  // Unqualified name → indices into `defs`, in deterministic
  // (file-path, token) order.
  std::map<std::string, std::vector<std::uint32_t>, std::less<>> defs_by_name;

  [[nodiscard]] const SourceFile* find(const std::string& rel_path) const {
    const auto it = by_path.find(rel_path);
    return it == by_path.end() ? nullptr : &files[it->second];
  }
};

/// Identifiers that can precede '(' without being a callable name
/// (control keywords, operators, cast-like constructs). Shared between
/// the definition indexer and the reachability pass's call scanner.
bool is_reserved_word(std::string_view w);

/// One past the balanced punct pair opening at token `i`, or
/// tokens.size() when unbalanced.
std::size_t skip_balanced(const SourceFile& f, std::size_t i, std::string_view open,
                          std::string_view close);

/// Given `k`, one past a parameter list's ')', skip the declarator tail
/// (qualifiers, trailing return, constructor init list) and return the
/// body's '{' token, or npos when the declarator has no body (`;`,
/// `= default/delete/0`).
std::size_t body_open(const SourceFile& f, std::size_t k);

/// Walk `paths` (or the default src/tools/bench/tests walk when empty)
/// under `root`, load + lex every lintable file, and build the include
/// graph and function index. Identical skip rules to the historic walk:
/// lint_fixtures/ and build*/ directories are never entered. Files of
/// examples/ and perfbench/ (and, for an explicit-path run, the rest of
/// the lint trees) land in `reference_files`.
FileIndex build_index(const std::filesystem::path& root,
                      const std::vector<std::filesystem::path>& paths,
                      std::string* error);

}  // namespace lint
