// ds_lint — repo-specific determinism & architecture linter (CLI).
//
// The passes live in tools/lint/ (shared lexer + file index + rule
// registry; see DESIGN.md §14). This file only parses flags:
//
//   ds_lint [--root DIR] [PATH…]        lint the tree (or just PATH…)
//   ds_lint --rule NAME                 restrict output to one rule
//   ds_lint --format=text|json          finding output format
//   ds_lint --include-graph FILE        also dump the resolved #include
//                                       DAG (layer table + per-file
//                                       edges) as JSON; '-' = stdout
//   ds_lint --list-rules                registry with summaries
//
// Exit codes: 0 clean, 1 findings survived suppression, 64 usage or
// configuration error (EX_USAGE) — including a --root with no src/ and
// a run that finds no source files to lint.
#include <cstdio>
#include <cstring>
#include <string>

#include "lint/driver.h"

namespace {

int usage(std::FILE* to) {
  std::fprintf(to,
               "usage: ds_lint [--root <dir>] [--rule <name>] [--format=text|json]\n"
               "               [--include-graph <file>] [--list-rules] [paths...]\n"
               "\n"
               "With no paths: walks src/ tools/ bench/ tests/ under --root (default: cwd),\n"
               "skipping tests/lint_fixtures/. Paths may be files or directories.\n");
  return lint::kExitUsage;
}

}  // namespace

int main(int argc, char** argv) {
  lint::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      options.root = argv[++i];
    } else if (arg == "--rule" && i + 1 < argc) {
      options.only_rule = argv[++i];
    } else if (arg == "--include-graph" && i + 1 < argc) {
      options.include_graph_path = argv[++i];
    } else if (arg.rfind("--format=", 0) == 0) {
      const std::string format = arg.substr(std::strlen("--format="));
      if (format == "json") {
        options.json = true;
      } else if (format != "text") {
        std::fprintf(stderr, "ds_lint: unknown format '%s'\n", format.c_str());
        return usage(stderr);
      }
    } else if (arg == "--list-rules") {
      lint::list_rules();
      return lint::kExitClean;
    } else if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return lint::kExitClean;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(stderr);
    } else {
      options.paths.emplace_back(arg);
    }
  }
  return lint::run(options);
}
