// The original seven determinism rules, migrated onto the shared token
// stream (one lex per file; every scan below is a walk over
// SourceFile::tokens or the pre-split lines — no rule re-lexes).
// Diagnostic positions are pinned by tests/lint_fixtures/expected.txt.
#include <algorithm>
#include <set>
#include <string>

#include "lint/rules.h"

namespace lint {

void emit(Emit& out, const SourceFile& src, std::size_t line_index, const char* rule,
          std::string message) {
  out.push_back(Finding{src.path, line_index + 1, rule, std::move(message), {}, false});
}

std::string quoted(std::string_view text, std::string_view suffix) {
  std::string out;
  out.reserve(text.size() + suffix.size() + 2);
  out += '\'';
  out += text;
  out += suffix;
  out += '\'';
  return out;
}

namespace {

/// Index of the previous token on the same line, or npos (the call
/// heuristics are deliberately line-local, like the lexer they
/// replaced: a line break before '(' reads as a declaration, not a
/// call).
std::size_t prev_on_line(const SourceFile& src, std::size_t i) {
  if (i == 0 || src.tokens[i - 1].line != src.tokens[i].line) return std::string::npos;
  return i - 1;
}

/// True when tokens[i+1] is `p` and starts exactly where tokens[i]
/// ends (e.g. `time(` as opposed to `time (`).
bool adjacent_punct(const SourceFile& src, std::size_t i, std::string_view p) {
  if (i + 1 >= src.tokens.size()) return false;
  const Token& a = src.tokens[i];
  const Token& b = src.tokens[i + 1];
  return b.line == a.line && b.col == a.col + a.len && src.is_punct(i + 1, p);
}

/// One past a balanced template argument list opening at token `i`
/// (`>>` lexes as two '>' tokens, so nesting counts correctly);
/// returns `i` when tokens[i] is not '<'.
std::size_t skip_template_args(const SourceFile& src, std::size_t i) {
  if (i >= src.tokens.size() || !src.is_punct(i, "<")) return i;
  int depth = 0;
  for (; i < src.tokens.size(); ++i) {
    if (src.is_punct(i, "<")) ++depth;
    if (src.is_punct(i, ">") && --depth == 0) return i + 1;
  }
  return src.tokens.size();
}

bool punct_in(const SourceFile& src, std::size_t i, std::string_view set_of_chars) {
  if (src.tokens[i].kind != Token::Kind::Punct || src.tokens[i].len != 1) return false;
  return set_of_chars.find(src.code[src.tokens[i].line][src.tokens[i].col]) !=
         std::string_view::npos;
}

}  // namespace

// --- shared detectors -----------------------------------------------------

void detect_alloc_markers(const SourceFile& src, std::size_t begin, std::size_t end,
                          const DetectorSink& sink) {
  // Free functions that return fresh heap storage (DESIGN §14 lists
  // both sets and what stays outside them).
  static const std::set<std::string, std::less<>> kCalls = {
      "make_unique",     "make_unique_for_overwrite", "make_shared",
      "make_shared_for_overwrite", "allocate_shared", "allocate_shared_for_overwrite",
      "malloc",          "calloc",                    "realloc",
      "aligned_alloc",   "strdup",                    "strndup",
  };
  // Standard-container members that may (re)allocate the container's
  // storage, flagged when called through '.' or '->'.
  static const std::set<std::string, std::less<>> kGrowth = {
      "push_back",     "emplace_back", "push_front",       "emplace_front", "emplace",
      "emplace_hint",  "try_emplace",  "insert",           "insert_or_assign",
      "insert_range",  "append",       "append_range",     "prepend_range", "assign",
      "assign_range",  "resize",       "resize_and_overwrite", "reserve",   "shrink_to_fit",
  };
  for (std::size_t i = begin; i < end && i < src.tokens.size(); ++i) {
    if (src.tokens[i].kind != Token::Kind::Ident) continue;
    const std::string_view text = src.text(src.tokens[i]);
    if (text == "new") {
      const std::size_t p = prev_on_line(src, i);
      if (p == std::string::npos || !src.is_ident(p, "operator")) {
        sink(i, "no-alloc-markers", "'new'");
      }
      continue;
    }
    if (kCalls.count(text) != 0) {
      const std::size_t paren = skip_template_args(src, i + 1);
      if (paren < src.tokens.size() && src.is_punct(paren, "(")) {
        sink(i, "no-alloc-markers", quoted(text));
      }
      continue;
    }
    if (kGrowth.count(text) != 0) {
      const std::size_t p = prev_on_line(src, i);
      const bool member =
          p != std::string::npos && (src.is_punct(p, ".") || src.is_punct(p, "->"));
      const std::size_t paren = skip_template_args(src, i + 1);
      if (member && paren < src.tokens.size() && src.is_punct(paren, "(")) {
        sink(i, "no-alloc-markers", "container growth " + quoted(text));
      }
    }
  }
}

void detect_ambient_rng(const SourceFile& src, std::size_t begin, std::size_t end,
                        const DetectorSink& sink) {
  static const std::set<std::string, std::less<>> kTypes = {
      "random_device", "mt19937", "mt19937_64", "minstd_rand", "default_random_engine",
  };
  static const std::set<std::string, std::less<>> kCalls = {"rand", "srand", "drand48"};
  for (std::size_t i = begin; i < end && i < src.tokens.size(); ++i) {
    if (src.tokens[i].kind != Token::Kind::Ident) continue;
    const std::string_view text = src.text(src.tokens[i]);
    if (kTypes.count(text) != 0) {
      sink(i, "no-ambient-rng", quoted(text));
      continue;
    }
    if (kCalls.count(text) != 0 && adjacent_punct(src, i, "(")) {
      const std::size_t p = prev_on_line(src, i);
      const bool member =
          p != std::string::npos && (src.is_punct(p, ".") || src.is_punct(p, "->"));
      if (!member) sink(i, "no-ambient-rng", quoted(text, "()"));
    }
  }
}

void detect_wallclock(const SourceFile& src, std::size_t begin, std::size_t end,
                      const DetectorSink& sink) {
  static const std::set<std::string, std::less<>> kBanned = {
      "system_clock",  "steady_clock",  "high_resolution_clock",
      "gettimeofday",  "clock_gettime", "timespec_get",
      // Host resource probes (peak RSS etc.) are observability, not sim
      // state — like wall timing they live behind allowlisted accessors.
      "getrusage",
  };
  for (std::size_t i = begin; i < end && i < src.tokens.size(); ++i) {
    if (src.tokens[i].kind != Token::Kind::Ident) continue;
    const std::string_view text = src.text(src.tokens[i]);
    if (kBanned.count(text) != 0) {
      sink(i, "no-wallclock", quoted(text));
      continue;
    }
    // Bare C `time(` / `clock(` calls: flag only expression-position
    // uses. Member access (`q.clock()`), qualified statics and
    // declarations (`const SimClock& clock() const`) are fine.
    if ((text == "time" || text == "clock") && adjacent_punct(src, i, "(")) {
      const std::size_t p = prev_on_line(src, i);
      const bool member =
          p != std::string::npos && (src.is_punct(p, ".") || src.is_punct(p, "->"));
      const bool call_position = p == std::string::npos || punct_in(src, p, ";{}(,=");
      bool std_qualified = false;
      if (p != std::string::npos && src.is_punct(p, "::")) {
        const std::size_t q = prev_on_line(src, p);
        std_qualified = q != std::string::npos && src.is_ident(q, "std");
      }
      if ((call_position && !member) || std_qualified) {
        sink(i, "no-wallclock", quoted(text, "()"));
      }
    }
  }
}

// --- no-wallclock ---------------------------------------------------------
// Simulated time comes from sim::EventQueue; host wall time is reserved
// for the obs/ stage profiler and the sweep harness's wall metric (both
// explicitly outside the deterministic state). Anything else reading
// the machine clock makes behaviour depend on the host.
bool wallclock_applies(const std::string& path) {
  if (starts_with(path, "src/obs/")) return false;  // owns wall timing
  if (starts_with(path, "tools/")) return false;    // host-side CLIs
  return true;
}

namespace {

void rule_no_wallclock(const SourceFile& src, Emit& out) {
  detect_wallclock(src, 0, src.tokens.size(),
                   [&](std::size_t tok, const char* rule, std::string desc) {
                     emit(out, src, src.tokens[tok].line, rule,
                          desc + " reads the host clock; simulated time comes from "
                                 "sim::EventQueue");
                   });
}

}  // namespace

// --- no-ambient-rng -------------------------------------------------------
// All randomness flows through sim::Rng (seeded, forkable, recorded in
// BENCH json). Ambient engines make runs unrepeatable.
bool rng_applies(const std::string& path) {
  return path != "src/sim/random.h";  // the sanctioned engine lives here
}

namespace {

void rule_no_ambient_rng(const SourceFile& src, Emit& out) {
  detect_ambient_rng(src, 0, src.tokens.size(),
                     [&](std::size_t tok, const char* rule, std::string desc) {
                       emit(out, src, src.tokens[tok].line, rule,
                            desc + " is ambient randomness; seed a sim::Rng (or fork "
                                   "an existing one)");
                     });
}

// --- no-unordered-iteration ----------------------------------------------
// Iterating an unordered container visits elements in hash order, which
// varies across libstdc++ versions and salt — any simulation state or
// output derived from that order breaks bit-identical replays. Keyed
// lookups are fine; iteration in deterministic subsystems is not.
bool unordered_applies(const std::string& path) {
  static const std::vector<std::string> kScopes = {
      "src/sim/", "src/study/", "src/core/", "src/sensors/", "src/hw/", "src/wireless/",
      "src/host/",
  };
  return std::any_of(kScopes.begin(), kScopes.end(),
                     [&](const std::string& s) { return starts_with(path, s); });
}

void rule_no_unordered_iteration(const SourceFile& src, Emit& out) {
  // Pass 1: names declared with an unordered container type (template
  // argument lists may span lines — the token stream doesn't care).
  static const std::set<std::string, std::less<>> kTypes = {
      "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset",
  };
  std::set<std::string> unordered_vars;
  for (std::size_t i = 0; i < src.tokens.size(); ++i) {
    if (src.tokens[i].kind != Token::Kind::Ident) continue;
    if (kTypes.count(src.text(src.tokens[i])) == 0) continue;
    std::size_t p = skip_template_args(src, i + 1);
    while (p < src.tokens.size() && src.is_punct(p, "&")) ++p;
    if (p < src.tokens.size() && src.tokens[p].kind == Token::Kind::Ident) {
      unordered_vars.insert(std::string(src.text(src.tokens[p])));
    }
  }
  if (unordered_vars.empty()) return;

  // Pass 2: range-for over, or begin()/iterator walks of, those names.
  std::set<std::pair<std::uint32_t, std::string>> reported;
  for (std::size_t i = 0; i < src.tokens.size(); ++i) {
    if (src.tokens[i].kind != Token::Kind::Ident) continue;
    const std::string name(src.text(src.tokens[i]));
    if (unordered_vars.count(name) == 0) continue;
    const std::uint32_t line = src.tokens[i].line;

    bool begin_walk = false;
    if (i + 2 < src.tokens.size() &&
        (src.is_punct(i + 1, ".") || src.is_punct(i + 1, "->")) &&
        (src.is_ident(i + 2, "begin") || src.is_ident(i + 2, "cbegin"))) {
      begin_walk = true;
    }

    // Range-for on the same line: `for (… : name)` — a 'for' token and a
    // plain ':' before the name.
    bool range_for = false;
    std::size_t j = i;
    while (j > 0 && src.tokens[j - 1].line == line) --j;
    bool saw_for = false;
    for (std::size_t k = j; k < i; ++k) {
      if (src.is_ident(k, "for")) saw_for = true;
      if (saw_for && src.is_punct(k, ":")) range_for = true;
    }

    if ((range_for || begin_walk) && reported.emplace(line, name).second) {
      emit(out, src, line, "no-unordered-iteration",
           "iterating unordered container '" + name +
               "' visits hash order; use a sorted container or sort the keys first");
    }
  }
}

// --- no-std-function-hot-path --------------------------------------------
// std::function in a device-side header means a type-erased, possibly
// heap-backed callable on a per-sample path. util::FunctionRef is the
// sanctioned delegate; owning std::function belongs at setup-time
// boundaries only, each use justified with an allow().
bool stdfunction_applies(const std::string& path) {
  if (!is_header(path)) return false;
  static const std::vector<std::string> kScopes = {
      "src/hw/", "src/core/", "src/sensors/", "src/display/",
  };
  return std::any_of(kScopes.begin(), kScopes.end(),
                     [&](const std::string& s) { return starts_with(path, s); });
}

void rule_no_std_function(const SourceFile& src, Emit& out) {
  std::uint32_t last_line = UINT32_MAX;
  for (std::size_t i = 0; i + 2 < src.tokens.size(); ++i) {
    if (src.is_ident(i, "std") && src.is_punct(i + 1, "::") &&
        src.is_ident(i + 2, "function") && src.tokens[i].line != last_line) {
      last_line = src.tokens[i].line;
      emit(out, src, last_line, "no-std-function-hot-path",
           "std::function in a device-side header; use util::FunctionRef on sampling "
           "paths (allow() only for setup-time owners)");
    }
  }
}

// --- no-alloc-markers -----------------------------------------------------
// Regions bracketed DS_HOT_BEGIN/DS_HOT_END declare "steady-state
// allocation-free" (the claim util::AllocGuard pins at runtime). Flag
// lexical allocation markers inside them; amortised-growth lines that
// are provably warm-path-free carry an allow() with the reason. The
// cross-TU half of this rule — markers reachable FROM a region through
// the call graph — lives in the hot-path-reachability pass.
void rule_no_alloc_markers(const SourceFile& src, Emit& out) {
  for (const MarkerError& err : src.marker_errors) {
    emit(out, src, err.line, "no-alloc-markers", err.message);
  }
  for (const HotRegion& region : src.hot_regions) {
    detect_alloc_markers(src, region.begin_tok, region.end_tok,
                         [&](std::size_t tok, const char* rule, std::string desc) {
                           emit(out, src, src.tokens[tok].line, rule,
                                desc + " inside a DS_HOT region");
                         });
  }
}

// --- include-hygiene ------------------------------------------------------
// Headers must not drag in stream globals (<iostream> instantiates
// std::cout's init guard into every TU) and includes are root-relative
// (no "../" escapes — they break the single -I src include model).
void rule_include_hygiene(const SourceFile& src, Emit& out) {
  for (std::size_t li = 0; li < src.code.size(); ++li) {
    const std::string& code = src.code[li];
    const std::size_t hash = code.find_first_not_of(" \t");
    if (hash == std::string::npos || code[hash] != '#') continue;
    if (code.find("include", hash) == std::string::npos) continue;
    const std::string& raw = src.raw[li];  // the path lives in a "string"
    if (is_header(src.path) && raw.find("<iostream>") != std::string::npos) {
      emit(out, src, li, "include-hygiene",
           "<iostream> in a header drags stream init into every TU; include it in the "
           ".cpp");
    }
    if (raw.find("\"../") != std::string::npos) {
      emit(out, src, li, "include-hygiene",
           "parent-relative include; use a root-relative path (-I src)");
    }
  }
}

// --- pragma-once ----------------------------------------------------------
void rule_pragma_once(const SourceFile& src, Emit& out) {
  if (!is_header(src.path)) return;
  for (const std::string& line : src.code) {
    if (line.find("#pragma once") != std::string::npos) return;
  }
  if (!src.code.empty()) {
    emit(out, src, 0, "pragma-once", "header is missing '#pragma once'");
  }
}

bool always(const std::string&) { return true; }
bool never(const std::string&) { return false; }

}  // namespace

// Whole-program passes (defined in their own TUs).
void rule_include_layering(const FileIndex& index, Emit& out);
void rule_hot_path_reachability(const FileIndex& index, Emit& out);
void rule_concurrency_purity(const FileIndex& index, Emit& out);
void rule_test_only_api(const FileIndex& index, Emit& out);

const std::vector<Rule>& registry() {
  static const std::vector<Rule> kRules = {
      {"no-wallclock", "host clock reads outside obs/ wall-timing and tools/",
       wallclock_applies, rule_no_wallclock, nullptr},
      {"no-ambient-rng", "randomness not flowing through sim::Rng", rng_applies,
       rule_no_ambient_rng, nullptr},
      {"no-unordered-iteration", "hash-order iteration in deterministic subsystems",
       unordered_applies, rule_no_unordered_iteration, nullptr},
      {"no-std-function-hot-path",
       "std::function in device-side headers (util::FunctionRef is the delegate)",
       stdfunction_applies, rule_no_std_function, nullptr},
      {"no-alloc-markers",
       "allocation markers inside (or reachable from) DS_HOT regions",
       always, rule_no_alloc_markers, nullptr},
      {"include-hygiene", "<iostream> in headers; parent-relative includes", always,
       rule_include_hygiene, nullptr},
      {"pragma-once", "headers must use #pragma once", always, rule_pragma_once,
       nullptr},
      {"include-layering",
       "src/ module DAG: declared layer order, explicit allowed edges, no cycles",
       nullptr, nullptr, rule_include_layering},
      {"hot-path-reachability",
       "cross-TU walk from DS_HOT regions; findings carry the upgraded rule's name",
       nullptr, nullptr, rule_hot_path_reachability},
      {"concurrency-purity",
       "mutable namespace-scope/static state in ThreadPool-executed modules",
       nullptr, nullptr, rule_concurrency_purity},
      {"test-only-api",
       "functions declared in src/ headers that no program outside tests/ calls",
       nullptr, nullptr, rule_test_only_api},
      {"suppression-hygiene",
       "allow() comments must name a rule that fires here and carry a justification",
       never, nullptr, nullptr},  // implemented by the driver over raw findings
  };
  return kRules;
}

bool rule_exists(const std::string& name) {
  for (const Rule& rule : registry()) {
    if (name == rule.name) return true;
  }
  return false;
}

}  // namespace lint
