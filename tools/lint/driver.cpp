#include "lint/driver.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <set>
#include <string>

#include "lint/index.h"
#include "lint/rules.h"

namespace lint {
namespace {

void json_escape(const std::string& s, std::string& out) {
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
}

void print_text(const std::vector<Finding>& findings) {
  for (const Finding& f : findings) {
    std::printf("%s:%zu: %s: %s\n", f.file.c_str(), f.line, f.rule.c_str(),
                f.message.c_str());
    if (!f.chain.empty()) {
      std::string via = "    via ";
      for (std::size_t i = 0; i < f.chain.size(); ++i) {
        if (i != 0) via += " -> ";
        via += f.chain[i];
      }
      std::printf("%s\n", via.c_str());
    }
  }
}

void print_json(const Options& options, const std::vector<Finding>& findings) {
  std::string buf = "{\n  \"root\": \"";
  json_escape(options.root.generic_string(), buf);
  buf += "\",\n  \"findings\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    buf += i == 0 ? "\n" : ",\n";
    buf += "    {\"file\": \"";
    json_escape(f.file, buf);
    buf += "\", \"line\": " + std::to_string(f.line) + ", \"rule\": \"";
    json_escape(f.rule, buf);
    buf += "\", \"message\": \"";
    json_escape(f.message, buf);
    buf += "\", \"chain\": [";
    for (std::size_t c = 0; c < f.chain.size(); ++c) {
      if (c != 0) buf += ", ";
      buf += "\"";
      json_escape(f.chain[c], buf);
      buf += "\"";
    }
    buf += "]}";
  }
  buf += findings.empty() ? "]\n}\n" : "\n  ]\n}\n";
  std::fwrite(buf.data(), 1, buf.size(), stdout);
}

/// Suppression pass: drop findings covered by an allow() on the same or
/// the preceding line, recording which (site, rule) pairs earned their
/// keep. Unsuppressable findings (hygiene, layer-table coherence) pass
/// through untouched.
std::vector<Finding> apply_suppressions(
    const FileIndex& index, std::vector<Finding> raw,
    std::map<std::string, std::set<std::pair<std::uint32_t, std::string>>>& used) {
  std::vector<Finding> kept;
  kept.reserve(raw.size());
  for (Finding& f : raw) {
    if (f.unsuppressable || f.line == 0) {
      kept.push_back(std::move(f));
      continue;
    }
    const SourceFile* src = index.find(f.file);
    const std::uint32_t li = static_cast<std::uint32_t>(f.line - 1);
    if (src == nullptr || !src->suppressed(li, f.rule)) {
      kept.push_back(std::move(f));
      continue;
    }
    // Credit every covering site that names the rule (a suppression on
    // the line and another above both count as exercised).
    for (const AllowSite& site : src->allow_sites) {
      if ((site.line == li || site.line + 1 == li) && site.rules.count(f.rule) != 0) {
        used[f.file].emplace(site.line, f.rule);
      }
    }
  }
  return kept;
}

/// The suppression-hygiene meta-rule, run over the usage ledger: every
/// allow() must name a rule that raw-fired on a line it covers, and the
/// comment must say WHY. Its findings are unsuppressable — an allow()
/// cannot vouch for itself.
void check_suppression_hygiene(
    const FileIndex& index,
    const std::map<std::string, std::set<std::pair<std::uint32_t, std::string>>>& used,
    std::vector<Finding>& out) {
  for (const SourceFile& src : index.files) {
    const auto used_it = used.find(src.path);
    for (const AllowSite& site : src.allow_sites) {
      for (const std::string& rule : site.rules) {
        if (!rule_exists(rule)) {
          out.push_back(Finding{src.path, site.line + 1, "suppression-hygiene",
                                "allow() names unknown rule '" + rule + "'",
                                {}, true});
          continue;
        }
        const bool exercised =
            used_it != used.end() &&
            used_it->second.count(std::make_pair(site.line, rule)) != 0;
        if (!exercised) {
          out.push_back(Finding{src.path, site.line + 1, "suppression-hygiene",
                                "stale allow(" + rule + "): no " + rule +
                                    " finding on this or the next line; remove it",
                                {}, true});
        }
      }
      if (!site.has_reason) {
        out.push_back(Finding{src.path, site.line + 1, "suppression-hygiene",
                              "allow() carries no justification; say why in the "
                              "same comment",
                              {}, true});
      }
    }
  }
}

}  // namespace

void list_rules() {
  for (const Rule& rule : registry()) {
    std::printf("%-26s %s\n", rule.name, rule.summary);
  }
}

int run(const Options& options) {
  const auto t0 = std::chrono::steady_clock::now();
  if (!options.only_rule.empty() && !rule_exists(options.only_rule)) {
    std::fprintf(stderr, "ds_lint: unknown rule '%s' (try --list-rules)\n",
                 options.only_rule.c_str());
    return kExitUsage;
  }

  // A root without src/ (a typo, the wrong cwd) would otherwise lint
  // nothing and exit clean, so a misconfigured gate would read green.
  const std::filesystem::path root = std::filesystem::absolute(options.root);
  std::error_code ec;
  if (!std::filesystem::is_directory(root / "src", ec)) {
    std::fprintf(stderr, "ds_lint: --root '%s' has no src/ directory\n",
                 options.root.string().c_str());
    return kExitUsage;
  }
  std::string error;
  const FileIndex index = build_index(root, options.paths, &error);
  if (!error.empty()) {
    std::fprintf(stderr, "ds_lint: %s\n", error.c_str());
    return kExitUsage;
  }
  if (index.files.empty()) {
    std::fprintf(stderr, "ds_lint: no source files to lint under '%s'\n",
                 options.root.string().c_str());
    return kExitUsage;
  }
  const auto t_index = std::chrono::steady_clock::now();

  if (!options.include_graph_path.empty()) {
    std::FILE* out = options.include_graph_path == "-"
                         ? stdout
                         : std::fopen(options.include_graph_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "ds_lint: cannot write '%s'\n",
                   options.include_graph_path.c_str());
      return kExitUsage;
    }
    write_include_graph_json(index, out);
    if (out != stdout) std::fclose(out);
  }

  // Raw findings: file-local rules in registry order over each file,
  // then the whole-program passes. This ordering is what makes the
  // dedup below prefer region-local findings over reachability
  // duplicates of the same (file, line, rule).
  std::vector<Finding> raw;
  for (const Rule& rule : registry()) {
    if (rule.scan_file == nullptr) continue;
    for (const SourceFile& src : index.files) {
      if (rule.applies(src.path)) rule.scan_file(src, raw);
    }
  }
  const auto t_local = std::chrono::steady_clock::now();
  for (const Rule& rule : registry()) {
    if (rule.scan_tree != nullptr) rule.scan_tree(index, raw);
  }
  const auto t_tree = std::chrono::steady_clock::now();

  // Dedup keeps the earliest-emitted finding per (file, line, rule).
  std::stable_sort(raw.begin(), raw.end(),
                   [](const Finding& a, const Finding& b) { return a < b; });
  raw.erase(std::unique(raw.begin(), raw.end(),
                        [](const Finding& a, const Finding& b) {
                          return !(a < b) && !(b < a);
                        }),
            raw.end());

  std::map<std::string, std::set<std::pair<std::uint32_t, std::string>>> used;
  std::vector<Finding> findings = apply_suppressions(index, std::move(raw), used);
  check_suppression_hygiene(index, used, findings);
  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) { return a < b; });

  if (!options.only_rule.empty()) {
    findings.erase(std::remove_if(findings.begin(), findings.end(),
                                  [&](const Finding& f) {
                                    return f.rule != options.only_rule;
                                  }),
                   findings.end());
  }

  if (options.json) {
    print_json(options, findings);
  } else {
    print_text(findings);
  }

  const auto t_end = std::chrono::steady_clock::now();
  const auto ms = [](auto from, auto to) {
    return static_cast<double>(std::chrono::duration_cast<std::chrono::microseconds>(
                                   to - from)
                                   .count()) /
           1000.0;
  };
  std::fprintf(stderr,
               "ds_lint: %zu files, %zu findings, %.1f ms "
               "(index %.1f, local %.1f, tree %.1f, report %.1f)\n",
               index.files.size(), findings.size(), ms(t0, t_end), ms(t0, t_index),
               ms(t_index, t_local), ms(t_local, t_tree), ms(t_tree, t_end));
  return findings.empty() ? kExitClean : kExitFindings;
}

}  // namespace lint
