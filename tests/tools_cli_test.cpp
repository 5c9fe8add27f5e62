// CLI contract of the bench_compare perf gate, the ds_lint analyzer,
// the fleet_run / host_ingest / trace_replay drivers and the size
// variables of the fleet and host benches.
//
// Pins the exit-code protocol the scripts and ctest wiring rely on:
// 0 = gates passed, 1 = regression/finding, 64 = malformed command
// line, 77 = environment not comparable (bench_compare only; ctest
// SKIP_RETURN_CODE). The malformed-input cases are the regression a
// past PR fixed: --tolerance used to go through atof, which silently
// truncated "1,6" to 1.0 and "1.6x" to 1.6 instead of rejecting them.
// A missing directory is also a usage error for both tools: bench_compare
// used to abort on it and ds_lint used to lint nothing and pass.
// For ds_lint the same file also pins both report formats: the text
// `file:line: rule: message` shape and the --format=json document.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

namespace {

int run_bench_compare(const std::string& args) {
  const std::string cmd =
      std::string(DS_BENCH_COMPARE_BIN) + " " + args + " >/dev/null 2>/dev/null";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return -1;
  const int status = pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Verdict plus optional memory/fleet/host fields of a synthetic report.
/// Zeroed optional fields are omitted, mimicking reports written before
/// the fields existed.
struct ExtraFields {
  bool bit_identical = true;
  double peak_rss_bytes = 0.0;
  double fleet_participants = 0.0;
  bool fleet_resume_bit_identical = true;
  double fleet_rss_growth = 0.0;
  double host_devices = 0.0;
  double host_frames_per_s = 0.0;
  double host_drop_rate = 0.0;
};

/// Minimal BENCH report the tool's flat-key parser accepts.
void write_report(const std::string& dir, double sequential_wall_s,
                  const ExtraFields& extra = {}) {
  std::ofstream out(dir + "/BENCH_cli_case.json");
  out << "{\n"
      << "  \"name\": \"cli_case\",\n"
      << "  \"cells\": 4,\n"
      << "  \"threads\": 1,\n"
      << "  \"hardware_threads\": 1,\n"
      << "  \"sequential_wall_s\": " << sequential_wall_s << ",\n"
      << "  \"parallel_wall_s\": " << sequential_wall_s << ",\n"
      << "  \"speedup\": 1.0,\n"
      << "  \"bit_identical\": " << (extra.bit_identical ? "true" : "false") << ",\n"
      << "  \"tracing_compiled\": true";
  if (extra.peak_rss_bytes > 0.0) {
    out << ",\n  \"peak_rss_bytes\": " << static_cast<long long>(extra.peak_rss_bytes);
  }
  if (extra.fleet_participants > 0.0) {
    out << ",\n  \"fleet_participants\": " << static_cast<long long>(extra.fleet_participants)
        << ",\n  \"fleet_participants_per_s\": 1000.0"
        << ",\n  \"fleet_resume_bit_identical\": "
        << (extra.fleet_resume_bit_identical ? "true" : "false")
        << ",\n  \"fleet_rss_growth\": " << extra.fleet_rss_growth;
  }
  if (extra.host_devices > 0.0) {
    out << ",\n  \"host_devices\": " << static_cast<long long>(extra.host_devices)
        << ",\n  \"host_frames_per_s\": " << extra.host_frames_per_s
        << ",\n  \"host_drop_rate\": " << extra.host_drop_rate;
  }
  out << "\n}\n";
}

std::string make_case_dirs(const std::string& tag, double baseline_s, double fresh_s,
                           const ExtraFields& baseline_extra = {},
                           const ExtraFields& fresh_extra = {}) {
  const std::string root = testing::TempDir() + "/bench_compare_" + tag;
  const std::string baseline = root + "/baseline";
  const std::string fresh = root + "/fresh";
  std::filesystem::create_directories(baseline);
  std::filesystem::create_directories(fresh);
  write_report(baseline, baseline_s, baseline_extra);
  write_report(fresh, fresh_s, fresh_extra);
  return root;
}

ExtraFields healthy_fleet() {
  ExtraFields extra;
  extra.peak_rss_bytes = 100e6;
  extra.fleet_participants = 100000;
  extra.fleet_rss_growth = 1.02;
  return extra;
}

TEST(BenchCompareCli, LocaleCommaToleranceIsUsageError) {
  EXPECT_EQ(run_bench_compare(". --tolerance 1,6"), 64);
}

TEST(BenchCompareCli, TrailingGarbageToleranceIsUsageError) {
  EXPECT_EQ(run_bench_compare(". --tolerance 1.6x"), 64);
}

TEST(BenchCompareCli, NonPositiveToleranceIsUsageError) {
  EXPECT_EQ(run_bench_compare(". --tolerance -2"), 64);
  EXPECT_EQ(run_bench_compare(". --tolerance 0"), 64);
}

TEST(BenchCompareCli, MissingBaselineDirIsUsageError) {
  EXPECT_EQ(run_bench_compare("--tolerance 1.5"), 64);
}

TEST(BenchCompareCli, NonexistentBaselineDirIsUsageError) {
  // Used to escape as an uncaught filesystem_error (abort, exit 134).
  EXPECT_EQ(run_bench_compare("/nonexistent/bench_baselines ."), 64);
}

TEST(BenchCompareCli, NonexistentFreshDirIsUsageError) {
  // With --allow-missing this used to skip every report (exit 77).
  const std::string root = make_case_dirs("no_fresh", 1.0, 1.0);
  EXPECT_EQ(run_bench_compare(root + "/baseline /nonexistent/fresh --allow-missing"), 64);
}

TEST(BenchCompareCli, MatchingReportsPass) {
  const std::string root = make_case_dirs("ok", 1.0, 1.0);
  EXPECT_EQ(run_bench_compare(root + "/baseline " + root + "/fresh --tolerance 1.5"), 0);
}

TEST(BenchCompareCli, SequentialRegressionFails) {
  const std::string root = make_case_dirs("seq_regress", 1.0, 2.0);
  EXPECT_EQ(run_bench_compare(root + "/baseline " + root + "/fresh --tolerance 1.5"), 1);
}

// --- memory + fleet gates -------------------------------------------------

TEST(BenchCompareCli, HealthyFleetReportPasses) {
  const std::string root = make_case_dirs("fleet_ok", 1.0, 1.0, healthy_fleet(),
                                          healthy_fleet());
  EXPECT_EQ(run_bench_compare(root + "/baseline " + root + "/fresh --tolerance 1.5"), 0);
}

TEST(BenchCompareCli, ReportsWithoutNewFieldsStillPass) {
  // Pre-fleet baselines lack peak_rss_bytes / fleet_* entirely; the new
  // gates must skip, not fail, on the absent fields.
  const std::string root = make_case_dirs("fleet_absent", 1.0, 1.0);
  EXPECT_EQ(run_bench_compare(root + "/baseline " + root + "/fresh --tolerance 1.5"), 0);
}

TEST(BenchCompareCli, FleetThreadDivergenceFails) {
  // The fleet's thread-count verdict lives in the one bit_identical field.
  auto fresh = healthy_fleet();
  fresh.bit_identical = false;
  const std::string root =
      make_case_dirs("fleet_diverged", 1.0, 1.0, healthy_fleet(), fresh);
  EXPECT_EQ(run_bench_compare(root + "/baseline " + root + "/fresh --tolerance 1.5"), 1);
}

TEST(BenchCompareCli, FleetResumeDivergenceFails) {
  auto fresh = healthy_fleet();
  fresh.fleet_resume_bit_identical = false;
  const std::string root =
      make_case_dirs("fleet_resume", 1.0, 1.0, healthy_fleet(), fresh);
  EXPECT_EQ(run_bench_compare(root + "/baseline " + root + "/fresh --tolerance 1.5"), 1);
}

TEST(BenchCompareCli, FleetRssGrowthBeyondFlatnessFails) {
  auto fresh = healthy_fleet();
  fresh.fleet_rss_growth = 1.4;  // > the fixed 1.10 flatness limit
  const std::string root =
      make_case_dirs("fleet_growth", 1.0, 1.0, healthy_fleet(), fresh);
  EXPECT_EQ(run_bench_compare(root + "/baseline " + root + "/fresh --tolerance 1.5"), 1);
}

TEST(BenchCompareCli, PeakRssRegressionFails) {
  auto fresh = healthy_fleet();
  fresh.peak_rss_bytes = 200e6;  // baseline 100e6 x 1.5 = 150e6 < 200e6
  const std::string root =
      make_case_dirs("rss_regress", 1.0, 1.0, healthy_fleet(), fresh);
  EXPECT_EQ(run_bench_compare(root + "/baseline " + root + "/fresh --tolerance 1.5"), 1);
}

// --- host ingest gates ----------------------------------------------------

ExtraFields healthy_host() {
  ExtraFields extra;
  extra.host_devices = 2000;
  extra.host_frames_per_s = 500000.0;
  extra.host_drop_rate = 0.20;
  return extra;
}

TEST(BenchCompareCli, HealthyHostReportPasses) {
  const std::string root =
      make_case_dirs("host_ok", 1.0, 1.0, healthy_host(), healthy_host());
  EXPECT_EQ(run_bench_compare(root + "/baseline " + root + "/fresh --tolerance 1.5"), 0);
}

TEST(BenchCompareCli, HostThreadDivergenceFails) {
  // The host's thread-count verdict lives in the one bit_identical field.
  auto fresh = healthy_host();
  fresh.bit_identical = false;
  const std::string root =
      make_case_dirs("host_diverged", 1.0, 1.0, healthy_host(), fresh);
  EXPECT_EQ(run_bench_compare(root + "/baseline " + root + "/fresh --tolerance 1.5"), 1);
}

TEST(BenchCompareCli, HostThroughputRegressionFails) {
  // Throughput gates lower-is-worse: baseline 500k / 1.5 = 333k > 300k.
  auto fresh = healthy_host();
  fresh.host_frames_per_s = 300000.0;
  const std::string root =
      make_case_dirs("host_slow", 1.0, 1.0, healthy_host(), fresh);
  EXPECT_EQ(run_bench_compare(root + "/baseline " + root + "/fresh --tolerance 1.5"), 1);
}

TEST(BenchCompareCli, HostDropRateRegressionFails) {
  // Drop rate gates higher-is-worse: baseline 0.20 x 1.5 = 0.30 < 0.35.
  auto fresh = healthy_host();
  fresh.host_drop_rate = 0.35;
  const std::string root =
      make_case_dirs("host_drops", 1.0, 1.0, healthy_host(), fresh);
  EXPECT_EQ(run_bench_compare(root + "/baseline " + root + "/fresh --tolerance 1.5"), 1);
}

TEST(BenchCompareCli, HostFieldsAbsentFromBaselineSkipTheGates) {
  // A fresh run that grew the host block vs a baseline that predates it:
  // throughput/drop are skipped.
  auto fresh = healthy_host();
  fresh.host_frames_per_s = 1.0;  // would fail the floor if gated
  const std::string root = make_case_dirs("host_absent", 1.0, 1.0, {}, fresh);
  EXPECT_EQ(run_bench_compare(root + "/baseline " + root + "/fresh --tolerance 1.5"), 0);
}

// --- ds_lint exit protocol and report formats -----------------------------

struct CliRun {
  std::string out;  // what the command line sends to the pipe
  int exit_code = -1;
};

CliRun run_shell(const std::string& cmd) {
  CliRun result;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return result;
  char buf[1024];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) result.out += buf;
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

CliRun run_cli(const char* bin, const std::string& args) {
  return run_shell(std::string(bin) + " " + args + " 2>/dev/null");
}

CliRun run_lint_cli(const std::string& args) { return run_cli(DS_LINT_BIN, args); }

TEST(DsLintCli, CleanTreeExitsZeroWithEmptyOutput) {
  // The allowlisted fixture subtree is the canonical clean input.
  const CliRun run = run_lint_cli(std::string("--root ") + DS_LINT_FIXTURE_DIR + " " +
                                  DS_LINT_FIXTURE_DIR + "/src/obs");
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_TRUE(run.out.empty()) << run.out;
}

TEST(DsLintCli, FindingsExitOneInTextFormat) {
  const CliRun run = run_lint_cli(std::string("--root ") + DS_LINT_FIXTURE_DIR);
  EXPECT_EQ(run.exit_code, 1);
  // Text format: `file:line: rule: message` plus indented `via` chains.
  EXPECT_NE(run.out.find(": no-alloc-markers: "), std::string::npos);
  EXPECT_NE(run.out.find("    via "), std::string::npos);
}

TEST(DsLintCli, UnknownFlagIsUsageError) {
  EXPECT_EQ(run_lint_cli("--no-such-flag").exit_code, 64);
}

TEST(DsLintCli, UnknownRuleIsUsageError) {
  EXPECT_EQ(run_lint_cli(std::string("--root ") + DS_LINT_FIXTURE_DIR +
                         " --rule no-such-rule")
                .exit_code,
            64);
}

TEST(DsLintCli, RootWithoutSrcIsUsageError) {
  // Used to lint zero files and exit 0, so a misconfigured gate read green.
  EXPECT_EQ(run_lint_cli("--root /nonexistent/repo").exit_code, 64);
  const std::string root = testing::TempDir() + "/ds_lint_no_src";
  std::filesystem::create_directories(root + "/tools");
  std::ofstream(root + "/tools/main.cpp") << "int main() { return 0; }\n";
  EXPECT_EQ(run_lint_cli("--root " + root).exit_code, 64);
}

TEST(DsLintCli, RootWithNoSourceFilesIsUsageError) {
  const std::string root = testing::TempDir() + "/ds_lint_empty_src";
  std::filesystem::create_directories(root + "/src");
  EXPECT_EQ(run_lint_cli("--root " + root).exit_code, 64);
}

TEST(DsLintCli, HelpExitsZero) {
  const CliRun run = run_lint_cli("--help");
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_NE(run.out.find("usage"), std::string::npos);
}

TEST(DsLintCli, JsonFormatIsWellFormed) {
  const CliRun run = run_lint_cli(std::string("--root ") + DS_LINT_FIXTURE_DIR +
                                  " --format=json");
  EXPECT_EQ(run.exit_code, 1) << "findings must still drive the exit code";
  // Shape pins (no JSON parser in-tree): top-level keys, one finding
  // object per manifest entry, and the reachability chain array.
  EXPECT_EQ(run.out.find("{\n"), 0u);
  EXPECT_NE(run.out.find("\"root\": "), std::string::npos);
  EXPECT_NE(run.out.find("\"findings\": ["), std::string::npos);
  EXPECT_NE(run.out.find("\"rule\": \"no-alloc-markers\""), std::string::npos);
  EXPECT_NE(run.out.find("\"chain\": [\""), std::string::npos);
  // Balanced braces/brackets — cheap structural sanity for consumers.
  long braces = 0;
  long brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < run.out.size(); ++i) {
    const char c = run.out[i];
    if (c == '"' && (i == 0 || run.out[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    braces += c == '{' ? 1 : c == '}' ? -1 : 0;
    brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
}

TEST(DsLintCli, JsonFormatOnCleanInputHasEmptyFindings) {
  const CliRun run = run_lint_cli(std::string("--root ") + DS_LINT_FIXTURE_DIR + " " +
                                  DS_LINT_FIXTURE_DIR + "/src/obs --format=json");
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_NE(run.out.find("\"findings\": []"), std::string::npos);
}

// --- every tool: --help and usage errors ----------------------------------

struct ToolCase {
  const char* bin;
  const char* args;
  int exit_code;
  bool usage_on_stdout;
};

TEST(ToolsCli, HelpExitsZeroAndUsageErrorsExit64) {
  // --help prints usage to stdout and exits 0; a malformed command line
  // exits 64 (EX_USAGE) with usage on stderr, on all five tools. For
  // trace_replay that includes an argument past the mode's arity (dump
  // used to ignore `--format=chrome` and print JSONL). An overloaded
  // host_ingest (64 devices behind one 1-slot lane) runs out
  // of drain grace with reports undelivered and exits 1 rather than
  // passing as a clean ingest.
  // fleet_run --stop-after without --checkpoint used to exit 0 and drop
  // the folded participants; with one it writes a resumable half-run.
  const std::string stop_with_checkpoint =
      "--participants 8 --trials 1 --chunk 4 --threads 1 --stop-after 4 --checkpoint " +
      testing::TempDir() + "/fleet_run_stop_after.ckpt";
  const ToolCase cases[] = {
      {DS_FLEET_RUN_BIN, "--help", 0, true},
      {DS_FLEET_RUN_BIN, "--no-such-flag", 64, false},
      {DS_FLEET_RUN_BIN, "--scalar", 64, false},
      {DS_FLEET_RUN_BIN, "--participants 8 --trials 1 --stop-after 4", 64, false},
      {DS_FLEET_RUN_BIN, stop_with_checkpoint.c_str(), 0, false},
      {DS_HOST_INGEST_BIN, "--help", 0, true},
      {DS_HOST_INGEST_BIN, "--no-such-flag", 64, false},
      {DS_HOST_INGEST_BIN, "--devices 64 --duration 0.05 --lanes 1 --lane-capacity 1", 1, false},
      {DS_BENCH_COMPARE_BIN, "--help", 0, true},
      {DS_BENCH_COMPARE_BIN, "", 64, false},
      {DS_TRACE_REPLAY_BIN, "--help", 0, true},
      {DS_TRACE_REPLAY_BIN, "", 64, false},
      {DS_TRACE_REPLAY_BIN, "no-such-mode /nonexistent.trace", 64, false},
      {DS_TRACE_REPLAY_BIN,
       "dump " DISTSCROLL_GOLDEN_DIR "/canonical_phone_menu.trace --format=chrome", 64, false},
      {DS_TRACE_REPLAY_BIN, "verify " DISTSCROLL_GOLDEN_DIR "/canonical_phone_menu.trace extra",
       64, false},
      {DS_TRACE_REPLAY_BIN, "record /nonexistent/out.trace /nonexistent/out.jsonl extra", 64,
       false},
      {DS_LINT_BIN, "--help", 0, true},
      {DS_LINT_BIN, "--no-such-flag", 64, false},
  };
  for (const ToolCase& c : cases) {
    const CliRun run = run_cli(c.bin, c.args);
    EXPECT_EQ(run.exit_code, c.exit_code) << c.bin << " " << c.args;
    EXPECT_EQ(run.out.find("usage") != std::string::npos, c.usage_on_stdout)
        << c.bin << " " << c.args << ": " << run.out;
  }
}

TEST(ToolsCli, TraceReplayRejectsUnknownEventKind) {
  // The golden trace with its first event's kind byte set to a retired
  // ARQ kind (8) and to 255: the file does not load, so dump and verify
  // both exit 1 ("unreadable trace") and dump prints nothing.
  std::ifstream in(DISTSCROLL_GOLDEN_DIR "/canonical_phone_menu.trace", std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  ASSERT_GT(bytes.size(), 24u + 17u);
  const std::string path = testing::TempDir() + "/trace_replay_unknown_kind.trace";
  for (const char kind : {'\x08', '\xff'}) {
    bytes[24 + 8] = kind;  // 24-byte header, then the first event's kind after its time
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
    for (const char* mode : {"dump ", "verify "}) {
      const CliRun run = run_cli(DS_TRACE_REPLAY_BIN, mode + path);
      EXPECT_EQ(run.exit_code, 1) << mode << int{static_cast<unsigned char>(kind)};
      EXPECT_TRUE(run.out.empty()) << run.out;
    }
  }
}

TEST(ToolsCli, HostIngestIncompleteDrainStillWritesItsOutputs) {
  const std::string out = testing::TempDir() + "/host_ingest_overload.dstl";
  const std::string jsonl = testing::TempDir() + "/host_ingest_overload.jsonl";
  std::filesystem::remove(out);
  std::filesystem::remove(jsonl);
  const CliRun run = run_cli(DS_HOST_INGEST_BIN,
                             "--devices 64 --duration 0.05 --lanes 1 --lane-capacity 1 --out " +
                                 out + " --jsonl " + jsonl);
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.out.find("grace exhausted"), std::string::npos) << run.out;
  EXPECT_GT(std::filesystem::file_size(out), 0u);
  EXPECT_GT(std::filesystem::file_size(jsonl), 0u);
}

TEST(ToolsCli, HostIngestGraceEndWithEveryReportAcceptedExitsZero) {
  // Every one of the 488 reports is accepted, but one device's frame
  // loses its acks and is still queued when the 2 s grace ends.
  // The host holds every report, so the run is not a failed drain.
  const CliRun run = run_cli(DS_HOST_INGEST_BIN,
                             "--devices 64 --duration 0.2 --loss 0.2 --reorder 0.05 "
                             "--corrupt 0.02 --ack-loss 0.1 --seed 7709");
  EXPECT_EQ(run.exit_code, 0) << run.out;
  EXPECT_NE(run.out.find("reports offered    488  (shed 0)"), std::string::npos) << run.out;
  EXPECT_NE(run.out.find("frames accepted    488 "), std::string::npos) << run.out;
  EXPECT_NE(run.out.find("grace exhausted"), std::string::npos) << run.out;
  EXPECT_NE(run.out.find("accepted frames are still awaiting acks"), std::string::npos)
      << run.out;
}

TEST(ToolsCli, NumericFlagsAreStrict) {
  // fleet_run and host_ingest share tools/cli_args.h. Overflowing
  // integers used to saturate to 2^64-1 (ERANGE ignored), so --threads
  // and --lane-capacity aborted on an uncaught length_error (exit 134),
  // and NaN probabilities passed the [0, 1] check and ran (exit 0).
  const char* huge = "99999999999999999999";
  const std::string cases[][2] = {
      {DS_FLEET_RUN_BIN, std::string("--threads ") + huge},
      {DS_FLEET_RUN_BIN, "--threads 257"},
      {DS_FLEET_RUN_BIN, std::string("--participants ") + huge},
      {DS_FLEET_RUN_BIN, std::string("--trials ") + huge},
      {DS_FLEET_RUN_BIN, std::string("--menu ") + huge},
      {DS_FLEET_RUN_BIN, std::string("--window ") + huge},
      {DS_FLEET_RUN_BIN, "--seed +5"},
      {DS_FLEET_RUN_BIN, "--seed ' 5'"},
      {DS_HOST_INGEST_BIN, std::string("--threads ") + huge},
      {DS_HOST_INGEST_BIN, "--threads 257"},
      {DS_HOST_INGEST_BIN, std::string("--lane-capacity ") + huge},
      {DS_HOST_INGEST_BIN, "--lane-capacity 1048577"},
      {DS_HOST_INGEST_BIN, "--lanes 8 --lane-capacity 262144"},
      {DS_HOST_INGEST_BIN, std::string("--lanes ") + huge},
      {DS_HOST_INGEST_BIN, std::string("--batch ") + huge},
      {DS_HOST_INGEST_BIN, "--loss nan"},
      {DS_HOST_INGEST_BIN, "--corrupt nan"},
      {DS_HOST_INGEST_BIN, "--reorder -nan"},
      {DS_HOST_INGEST_BIN, "--ack-loss inf"},
      {DS_HOST_INGEST_BIN, "--loss 1e-400"},
      {DS_HOST_INGEST_BIN, "--duration nan"},
      {DS_HOST_INGEST_BIN, "--duration inf"},
  };
  for (const auto& [bin, args] : cases) {
    EXPECT_EQ(run_cli(bin.c_str(), args).exit_code, 64) << bin << " " << args;
  }
  // In-range values still run.
  EXPECT_EQ(run_cli(DS_FLEET_RUN_BIN, "--participants 4 --trials 1 --threads 1 --window 4096")
                .exit_code,
            0);
  EXPECT_EQ(run_cli(DS_HOST_INGEST_BIN,
                    "--devices 4 --duration 0.05 --lanes 2 --lane-capacity 4096 --loss 0 "
                    "--corrupt 1e-3")
                .exit_code,
            0);
}

TEST(ToolsCli, BenchSizeVariablesFailLoudly) {
  // A malformed or out-of-range size variable used to be replaced by the
  // default in silence, so a typo ran a different experiment than asked.
  // Now both benches exit 64 before any work, naming the variable.
  const char* huge = "99999999999999999999";
  const std::string cases[][2] = {
      {DS_EXP_FLEET_POPULATION_BIN, "DISTSCROLL_FLEET_PARTICIPANTS=999"},
      {DS_EXP_FLEET_POPULATION_BIN, "DISTSCROLL_FLEET_PARTICIPANTS=abc"},
      {DS_EXP_FLEET_POPULATION_BIN, "DISTSCROLL_FLEET_PARTICIPANTS=5000x"},
      {DS_EXP_FLEET_POPULATION_BIN, std::string("DISTSCROLL_FLEET_PARTICIPANTS=") + huge},
      {DS_EXP_HOST_INGEST_BIN, "DISTSCROLL_HOST_DEVICES=15"},
      {DS_EXP_HOST_INGEST_BIN, "DISTSCROLL_HOST_DEVICES=65536"},
      {DS_EXP_HOST_INGEST_BIN, "DISTSCROLL_HOST_DEVICES=4x"},
      {DS_EXP_HOST_INGEST_BIN, "DISTSCROLL_HOST_DEVICES="},
  };
  for (const auto& [bin, assignment] : cases) {
    // stderr goes to the pipe, stdout is dropped.
    const CliRun run = run_shell("env '" + assignment + "' " + bin + " 2>&1 >/dev/null");
    EXPECT_EQ(run.exit_code, 64) << assignment;
    const std::string name = assignment.substr(0, assignment.find('='));
    EXPECT_NE(run.out.find(name), std::string::npos) << assignment << ": " << run.out;
  }
}

}  // namespace
