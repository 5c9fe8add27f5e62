// fleet_run: drive a streaming fleet population study from the command
// line — the operational face of study::run_fleet (the bench
// exp_fleet_population is the measured face).
//
// Usage:
//   fleet_run [--participants N] [--trials N] [--menu N] [--seed S]
//             [--threads N] [--chunk N] [--window N]
//             [--checkpoint PATH] [--checkpoint-every N] [--resume]
//             [--stop-after N]
//
// --checkpoint PATH writes a versioned binary checkpoint at every
// window where --checkpoint-every participants have elapsed (and always
// at exit), so a killed run loses at most one window. --resume loads
// PATH and continues from its cursor; the finished aggregates are
// byte-identical to an uninterrupted run (the fleet determinism
// contract, see DESIGN.md §12). --stop-after N folds only the first N
// participants (rounded up to a chunk), checkpoints them and exits — the
// manual way to produce a resumable half-run. It needs --checkpoint:
// without one nothing would be resumable.
//
// Numbers are strict (tools/cli_args.h): --trials is at most 2^20,
// --menu at most 2^16, --threads at most 256 and --window at most 4096
// chunks; anything else out of range is a usage error.
//
// Exit codes: 0 = ran (complete or stopped as asked) or --help, 1 = bad
// resume file / unwritable checkpoint, 64 = malformed command line.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>

#include "cli_args.h"
#include "study/fleet_study.h"
#include "study/sweep_runner.h"

namespace {

constexpr int kExitOk = 0;
constexpr int kExitFail = 1;
constexpr int kExitUsage = 64;

// Documented upper bounds (usage errors above them): sizes that would
// otherwise fail an allocation, or wrap in the 32-bit config fields.
constexpr std::uint64_t kMaxTrials = 1u << 20;
constexpr std::uint64_t kMaxMenu = 1u << 16;
constexpr std::uint64_t kMaxWindowChunks = 4096;

int usage(std::FILE* to = stderr) {
  std::fprintf(to,
               "usage: fleet_run [--participants N] [--trials N] [--menu N] [--seed S]\n"
               "                 [--threads N] [--chunk N] [--window N]\n"
               "                 [--checkpoint PATH] [--checkpoint-every N] [--resume]\n"
               "                 [--stop-after N]\n"
               "--resume and --stop-after need --checkpoint PATH\n"
               "limits: --trials 1..%" PRIu64 ", --menu 2..%" PRIu64 ", --threads 0..%" PRIu64
               ", --window 1..%" PRIu64 "\n",
               kMaxTrials, kMaxMenu, distscroll::tools::kMaxThreads, kMaxWindowChunks);
  return kExitUsage;
}

}  // namespace

int main(int argc, char** argv) {
  using distscroll::study::FleetStudyConfig;

  FleetStudyConfig config;
  std::uint64_t stop_after = distscroll::study::kFleetRunAll;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next_u64 = [&](std::uint64_t& out, std::uint64_t lo = 0, std::uint64_t hi = UINT64_MAX) {
      return i + 1 < argc && distscroll::tools::parse_u64(argv[++i], out, lo, hi);
    };
    std::uint64_t value = 0;
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      usage(stdout);
      return kExitOk;
    } else if (std::strcmp(arg, "--participants") == 0) {
      if (!next_u64(config.participants)) return usage();
    } else if (std::strcmp(arg, "--trials") == 0) {
      if (!next_u64(value, 1, kMaxTrials)) return usage();
      config.trials_per_participant = static_cast<std::uint32_t>(value);
    } else if (std::strcmp(arg, "--menu") == 0) {
      if (!next_u64(value, 2, kMaxMenu)) return usage();
      config.menu_size = static_cast<std::uint32_t>(value);
    } else if (std::strcmp(arg, "--seed") == 0) {
      if (!next_u64(config.base_seed)) return usage();
    } else if (std::strcmp(arg, "--threads") == 0) {
      if (!next_u64(value, 0, distscroll::tools::kMaxThreads)) return usage();
      config.threads = static_cast<std::size_t>(value);
    } else if (std::strcmp(arg, "--chunk") == 0) {
      if (!next_u64(config.chunk, 1)) return usage();
    } else if (std::strcmp(arg, "--window") == 0) {
      if (!next_u64(value, 1, kMaxWindowChunks)) return usage();
      config.window_chunks = static_cast<std::size_t>(value);
    } else if (std::strcmp(arg, "--checkpoint") == 0) {
      if (i + 1 >= argc) return usage();
      config.checkpoint_path = argv[++i];
    } else if (std::strcmp(arg, "--checkpoint-every") == 0) {
      if (!next_u64(config.checkpoint_every)) return usage();
    } else if (std::strcmp(arg, "--resume") == 0) {
      config.resume = true;
    } else if (std::strcmp(arg, "--stop-after") == 0) {
      if (!next_u64(stop_after)) return usage();
    } else {
      std::fprintf(stderr, "fleet_run: unknown argument '%s'\n", arg);
      return usage();
    }
  }
  if (config.resume && config.checkpoint_path.empty()) {
    std::fprintf(stderr, "fleet_run: --resume needs --checkpoint PATH\n");
    return usage();
  }
  if (stop_after != distscroll::study::kFleetRunAll && config.checkpoint_path.empty()) {
    std::fprintf(stderr, "fleet_run: --stop-after needs --checkpoint PATH\n");
    return usage();
  }

  const double t0 = distscroll::study::sweep_wall_clock_s();
  const auto result = distscroll::study::run_fleet(config, stop_after);
  const double wall_s = distscroll::study::sweep_wall_clock_s() - t0;

  if (result.status != distscroll::util::CheckpointStatus::Ok) {
    std::fprintf(stderr, "fleet_run: %s\n", result.error.c_str());
    return kExitFail;
  }

  const auto& agg = result.aggregates;
  const double folded = static_cast<double>(result.cursor - result.resumed_from);
  std::printf("fleet_run: %" PRIu64 "/%" PRIu64 " participants folded%s (%zu threads, "
              "%.2f s, %.0f participants/s)\n",
              result.cursor, config.participants, result.resumed ? " [resumed]" : "",
              distscroll::study::resolve_sweep_threads(config.threads),
              wall_s, wall_s > 0.0 ? folded / wall_s : 0.0);
  if (agg.trials() > 0) {
    const double trials = static_cast<double>(agg.trials());
    std::printf("  trials %" PRIu64 "  success %.4f  wrong/trial %.4f  overshoot/trial %.3f\n",
                agg.trials(), static_cast<double>(agg.successes()) / trials,
                static_cast<double>(agg.wrong_selections()) / trials,
                static_cast<double>(agg.overshoots()) / trials);
    std::printf("  time[s] mean %.3f sd %.3f  p50 %.3f  p90 %.3f  p99 %.3f  max %.3f\n",
                agg.time_s().mean(), agg.time_s().stddev(), agg.time_sketch().quantile(0.50),
                agg.time_sketch().quantile(0.90), agg.time_sketch().quantile(0.99),
                agg.time_s().max());
    std::printf("  throughput[bits/s] mean %.3f  expertise mean %.3f\n",
                agg.throughput_bits_s().mean(), agg.expertise().mean());
    std::printf("  gloves none/thin/thick %" PRIu64 "/%" PRIu64 "/%" PRIu64 "\n",
                agg.glove_counts()[0], agg.glove_counts()[1], agg.glove_counts()[2]);
  }
  if (!result.complete) {
    std::printf("  stopped at a chunk boundary; resume with --resume --checkpoint %s\n",
                config.checkpoint_path.c_str());
  }
  return kExitOk;
}
