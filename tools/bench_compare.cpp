// bench_compare: gate the perf trajectory on the committed BENCH_*.json
// baselines.
//
// Usage:
//   bench_compare <baseline_dir> [<fresh_dir>] [--tolerance <factor>] [--allow-missing]
//
// For every BENCH_<name>.json in <baseline_dir> the tool loads the
// fresh report of the same name from <fresh_dir> (default ".") and
// gates each recorded fact once:
//   * the fresh run kept the determinism contract (bit_identical: the
//     sweep's parallel pass, the fleet's and the host's thread-count
//     passes all record their verdict there);
//   * the fresh sequential wall clock (the fleet and host reference
//     passes included) is no worse than baseline * tolerance (default
//     1.25 — wall clocks on shared CI machines are noisy; the gate is
//     for real regressions, not jitter);
//   * peak_rss_bytes is no worse than baseline * tolerance;
//   * streaming-fleet reports (fleet_participants > 0) kept
//     checkpoint/resume bit-identity and RSS flatness (growth ratio
//     <= 1.10);
//   * host-ingest reports (host_devices > 0) kept throughput
//     (host_frames_per_s, LOWER is worse: fresh must stay above
//     baseline / tolerance) and the overload drop rate (HIGHER is
//     worse: fresh must stay below baseline * tolerance).
// Older baselines lack the optional fields and skip those gates.
//
// Exit codes: 0 = all gates passed (or --help), 1 = regression or unreadable
// report, 64 = malformed command line (e.g. an unparseable
// --tolerance, or a baseline/fresh directory that does not exist or
// cannot be listed), 77 = environment not comparable (hardware thread count
// or tracing build flavour differs from the baseline's) — wired into
// ctest as SKIP_RETURN_CODE so a laptop checkout doesn't fail the
// `perf` label against CI-recorded baselines.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace {

constexpr int kExitOk = 0;
constexpr int kExitFail = 1;
constexpr int kExitUsage = 64;  // EX_USAGE: malformed command line
constexpr int kExitSkip = 77;

/// Fleet runs must keep peak RSS flat (within 10%) relative to their
/// small-run baseline — the O(aggregates) memory contract.
constexpr double kFleetRssFlatLimit = 1.10;

int usage(std::FILE* to) {
  std::fprintf(to,
               "usage: bench_compare <baseline_dir> [<fresh_dir>] [--tolerance <factor>]"
               " [--allow-missing]\n");
  return kExitUsage;
}

struct Report {
  std::string name;
  double sequential_wall_s = 0.0;
  double hardware_threads = 0.0;
  bool bit_identical = false;
  bool tracing_compiled = false;
  // Memory + streaming-fleet fields; absent in older baselines.
  double peak_rss_bytes = 0.0;
  double fleet_participants = 0.0;
  bool fleet_resume_bit_identical = true;
  double fleet_rss_growth = 0.0;
  // Host-ingest fields; absent in baselines predating the pipeline.
  double host_devices = 0.0;
  double host_frames_per_s = 0.0;
  double host_drop_rate = 0.0;
};

/// First top-level `"key": <number|bool>` occurrence. The BENCH format
/// is flat with one nested "metrics" object whose keys never collide
/// with the ones this tool reads.
std::optional<double> find_number(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return std::nullopt;
  const char* cursor = json.c_str() + at + needle.size();
  while (*cursor == ' ') ++cursor;
  if (std::strncmp(cursor, "true", 4) == 0) return 1.0;
  if (std::strncmp(cursor, "false", 5) == 0) return 0.0;
  char* end = nullptr;
  const double value = std::strtod(cursor, &end);
  if (end == cursor) return std::nullopt;
  return value;
}

std::optional<Report> load_report(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();

  Report report;
  const auto wall = find_number(json, "sequential_wall_s");
  const auto hw = find_number(json, "hardware_threads");
  const auto bit = find_number(json, "bit_identical");
  const auto tracing = find_number(json, "tracing_compiled");
  if (!wall || !hw || !bit || !tracing) return std::nullopt;
  report.name = path.filename().string();
  report.sequential_wall_s = *wall;
  report.hardware_threads = *hw;
  report.bit_identical = *bit != 0.0;
  report.tracing_compiled = *tracing != 0.0;
  // Optional fields. find_number matches the exact quoted key, so
  // "fleet_resume_bit_identical" cannot collide with "bit_identical".
  report.peak_rss_bytes = find_number(json, "peak_rss_bytes").value_or(0.0);
  report.fleet_participants = find_number(json, "fleet_participants").value_or(0.0);
  report.fleet_resume_bit_identical =
      find_number(json, "fleet_resume_bit_identical").value_or(1.0) != 0.0;
  report.fleet_rss_growth = find_number(json, "fleet_rss_growth").value_or(0.0);
  report.host_devices = find_number(json, "host_devices").value_or(0.0);
  report.host_frames_per_s = find_number(json, "host_frames_per_s").value_or(0.0);
  report.host_drop_rate = find_number(json, "host_drop_rate").value_or(0.0);
  return report;
}

/// Strict double parse: the whole argument must be consumed. Rejects
/// locale-shaped ("1,6") and suffixed ("1.6x") inputs that atof would
/// silently truncate to a wrong gate.
std::optional<double> parse_full_double(const char* text) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0') return std::nullopt;
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_dir;
  std::string fresh_dir = ".";
  double tolerance = 1.25;
  // The ctest smoke gate regenerates ONE representative bench and
  // compares just that; baselines with no fresh report then count as
  // skipped instead of failing.
  bool allow_missing = false;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tolerance") == 0 && i + 1 < argc) {
      const char* text = argv[++i];
      const auto parsed = parse_full_double(text);
      if (!parsed || !(*parsed > 0.0)) {
        std::fprintf(stderr,
                     "bench_compare: invalid --tolerance '%s' (expect a positive number, "
                     "e.g. 1.25)\n",
                     text);
        return kExitUsage;
      }
      tolerance = *parsed;
    } else if (std::strcmp(argv[i], "--allow-missing") == 0) {
      allow_missing = true;
    } else if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      usage(stdout);
      return kExitOk;
    } else {
      positional.emplace_back(argv[i]);
    }
  }
  if (positional.empty()) return usage(stderr);
  baseline_dir = positional[0];
  if (positional.size() > 1) fresh_dir = positional[1];
  // A missing directory is a misconfigured gate, not a regression (1)
  // and not an incomparable environment (77): with --allow-missing a
  // missing fresh dir would otherwise skip every report.
  for (const std::string& dir : {baseline_dir, fresh_dir}) {
    std::error_code ec;
    if (!std::filesystem::is_directory(dir, ec)) {
      std::fprintf(stderr, "bench_compare: '%s' is not a directory\n", dir.c_str());
      return kExitUsage;
    }
  }

  int compared = 0, failed = 0, skipped = 0;
  std::error_code list_error;
  for (std::filesystem::directory_iterator it(baseline_dir, list_error), end;
       !list_error && it != end; it.increment(list_error)) {
    const auto& entry = *it;
    const std::string file = entry.path().filename().string();
    if (file.rfind("BENCH_", 0) != 0 || entry.path().extension() != ".json") continue;

    const auto baseline = load_report(entry.path());
    if (!baseline) {
      std::fprintf(stderr, "[fail] %s: unreadable baseline\n", file.c_str());
      ++failed;
      continue;
    }
    const auto fresh = load_report(std::filesystem::path(fresh_dir) / file);
    if (!fresh) {
      if (allow_missing) {
        std::printf("[skip] %s: no fresh report in %s\n", file.c_str(), fresh_dir.c_str());
        ++skipped;
      } else {
        std::fprintf(stderr, "[fail] %s: no fresh report in %s (run the exp_* benches first)\n",
                     file.c_str(), fresh_dir.c_str());
        ++failed;
      }
      continue;
    }
    if (fresh->hardware_threads != baseline->hardware_threads ||
        fresh->tracing_compiled != baseline->tracing_compiled) {
      std::printf("[skip] %s: environment differs (hw threads %.0f vs %.0f, tracing %d vs %d)\n",
                  file.c_str(), fresh->hardware_threads, baseline->hardware_threads,
                  fresh->tracing_compiled ? 1 : 0, baseline->tracing_compiled ? 1 : 0);
      ++skipped;
      continue;
    }
    ++compared;
    if (!fresh->bit_identical) {
      std::fprintf(stderr, "[fail] %s: results diverged across thread counts\n", file.c_str());
      ++failed;
      continue;
    }
    const double limit = baseline->sequential_wall_s * tolerance;
    if (fresh->sequential_wall_s > limit) {
      std::fprintf(stderr, "[fail] %s: sequential %.3fs exceeds baseline %.3fs x %.2f = %.3fs\n",
                   file.c_str(), fresh->sequential_wall_s, baseline->sequential_wall_s,
                   tolerance, limit);
      ++failed;
      continue;
    }
    // Streaming-fleet gates: bit-identity across checkpoint/resume is a
    // hard failure; the RSS growth ratio is the bench's
    // O(aggregates)-memory contract (flat within 10%).
    if (fresh->fleet_participants > 0.0) {
      if (!fresh->fleet_resume_bit_identical) {
        std::fprintf(stderr, "[fail] %s: fleet checkpoint/resume diverged from the full run\n",
                     file.c_str());
        ++failed;
        continue;
      }
      if (fresh->fleet_rss_growth > kFleetRssFlatLimit) {
        std::fprintf(stderr,
                     "[fail] %s: fleet peak RSS grew %.3fx over the small-run baseline "
                     "(flatness limit %.2fx)\n",
                     file.c_str(), fresh->fleet_rss_growth, kFleetRssFlatLimit);
        ++failed;
        continue;
      }
    }
    // Host-ingest gates: throughput gates LOWER-is-worse (frames/s
    // dropping below baseline / tolerance); the overload drop rate gates
    // HIGHER-is-worse, with an epsilon so a baseline of exactly 0 still
    // tolerates float noise.
    if (fresh->host_devices > 0.0 && baseline->host_devices > 0.0) {
      const double floor = baseline->host_frames_per_s / tolerance;
      if (fresh->host_frames_per_s < floor) {
        std::fprintf(stderr,
                     "[fail] %s: host %.0f frames/s below baseline %.0f / %.2f = %.0f\n",
                     file.c_str(), fresh->host_frames_per_s, baseline->host_frames_per_s,
                     tolerance, floor);
        ++failed;
        continue;
      }
      const double drop_limit = baseline->host_drop_rate * tolerance + 1e-9;
      if (fresh->host_drop_rate > drop_limit) {
        std::fprintf(stderr,
                     "[fail] %s: host drop rate %.6f exceeds baseline %.6f x %.2f\n",
                     file.c_str(), fresh->host_drop_rate, baseline->host_drop_rate, tolerance);
        ++failed;
        continue;
      }
    }
    // Peak-RSS trajectory: same tolerance philosophy as the wall
    // clocks. Absent fields (0) in either report skip the gate.
    if (baseline->peak_rss_bytes > 0.0 && fresh->peak_rss_bytes > 0.0) {
      const double rss_limit = baseline->peak_rss_bytes * tolerance;
      if (fresh->peak_rss_bytes > rss_limit) {
        std::fprintf(stderr,
                     "[fail] %s: peak RSS %.0f bytes exceeds baseline %.0f x %.2f = %.0f\n",
                     file.c_str(), fresh->peak_rss_bytes, baseline->peak_rss_bytes, tolerance,
                     rss_limit);
        ++failed;
        continue;
      }
    }
    std::printf("[ ok ] %s: sequential %.3fs vs baseline %.3fs (limit %.3fs)\n", file.c_str(),
                fresh->sequential_wall_s, baseline->sequential_wall_s, limit);
  }

  if (list_error) {
    std::fprintf(stderr, "bench_compare: cannot list '%s': %s\n", baseline_dir.c_str(),
                 list_error.message().c_str());
    return kExitUsage;
  }
  std::printf("bench_compare: %d compared, %d failed, %d skipped\n", compared, failed, skipped);
  if (failed > 0) return kExitFail;
  if (compared == 0) return skipped > 0 ? kExitSkip : kExitFail;
  return kExitOk;
}
