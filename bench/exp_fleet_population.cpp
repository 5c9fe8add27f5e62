// exp_fleet_population: the streaming fleet engine at population scale.
//
// The paper studied nine participants; this bench folds a sampled
// population of 100k (1M-capable via DISTSCROLL_FLEET_PARTICIPANTS)
// through the full DistScroll trial loop in O(aggregates) memory, and
// re-proves the fleet determinism contract on every run:
//
//   pass 0   small runs (participants/10) at 1, 2 and 8 threads plus a
//            checkpoint/resume split — pins the peak-RSS baseline
//   pass 1   full run, 1 thread, timed   — the reference byte stream
//   pass 2,3 full run at 2 and 8 threads — must merge byte-identically
//   pass 4   full run split by a forced checkpoint at half, resumed —
//            must also merge byte-identically
//
// Peak RSS is process-wide and monotone (getrusage), so "memory stays
// O(aggregates)" is measured as: peak after all five passes divided by
// peak after the small pass must stay within the 10% flatness limit —
// if the engine held per-participant state, 100k participants would
// multiply the baseline several times over. The small pass exercises
// the exact same thread counts and the checkpoint path so that thread
// stacks, pool state and IO buffers are already inside the baseline;
// only participant-dependent memory can move the ratio.
//
// BENCH_exp_fleet_population.json records the reference pass's wall
// clock as sequential_wall_s, the thread-count verdict as bit_identical,
// fleet_participants_per_s, fleet_resume_bit_identical and the RSS
// growth ratio; tools/bench_compare gates them under `ctest -L perf`.
// The process exit code enforces the contract even without a baseline.
//
// Exit codes: 0 = every contract held, 1 = a pass diverged, did not
// complete, grew RSS past the limit or could not write its json,
// 64 = DISTSCROLL_FLEET_PARTICIPANTS set to anything but a whole
// decimal >= 1000.
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "obs/tracer.h"
#include "study/fleet_study.h"
#include "study/sweep_runner.h"
#include "util/bench_report.h"
#include "util/strict_parse.h"

namespace {

using distscroll::study::FleetStudyConfig;
using distscroll::study::run_fleet;

constexpr int kExitUsage = 64;

FleetStudyConfig base_config(std::uint64_t participants) {
  FleetStudyConfig config;
  config.participants = participants;
  config.trials_per_participant = 4;
  config.menu_size = 40;
  config.base_seed = 0xF1EE7D15C;
  config.chunk = 256;
  config.window_chunks = 32;
  return config;
}

}  // namespace

int main() {
  namespace study = distscroll::study;

#if defined(__GLIBC__)
  // glibc grows per-thread malloc arenas lazily on lock contention, a
  // stochastic ~0.5-1 MiB of RSS that would drown the flatness signal
  // on an ~8 MiB baseline. One arena pins the allocator footprint; the
  // fold hot paths are alloc-free (DS_ASSERT_NO_ALLOC), so arena
  // contention is not on the measured path.
  mallopt(M_ARENA_MAX, 1);
#endif

  const auto env_participants =
      distscroll::util::env_u64("DISTSCROLL_FLEET_PARTICIPANTS", 100000, 1000);
  if (!env_participants) return kExitUsage;
  const std::uint64_t participants = *env_participants;
  const std::uint64_t small = participants / 10;

  // Pass 0: small runs through every shape the large passes use — 1, 2
  // and 8 threads plus a checkpoint/resume split — so thread stacks,
  // pool state and checkpoint IO buffers land in the RSS baseline and
  // the flatness ratio measures participant scaling alone. The thread
  // loop runs twice: glibc grows per-thread malloc arenas lazily on
  // contention, and the second lap reaches that plateau (~0.6 MiB)
  // which would otherwise be misread as participant growth.
  for (int lap = 0; lap < 2; ++lap) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      auto config = base_config(small);
      config.threads = threads;
      const auto result = run_fleet(config);
      if (!result.complete) {
        std::fprintf(stderr, "exp_fleet_population: small pass did not complete\n");
        return 1;
      }
    }
  }
  const std::string small_checkpoint = "BENCH_exp_fleet_population.small.ckpt";
  std::remove(small_checkpoint.c_str());
  {
    auto config = base_config(small);
    config.threads = 2;
    config.checkpoint_path = small_checkpoint;
    const auto half = run_fleet(config, small / 2);
    config.resume = true;
    const auto resumed = run_fleet(config);
    if (half.status != distscroll::util::CheckpointStatus::Ok || !resumed.complete) {
      std::fprintf(stderr, "exp_fleet_population: small checkpoint pass did not complete\n");
      return 1;
    }
  }
  std::remove(small_checkpoint.c_str());
  const std::size_t rss_baseline = study::sweep_peak_rss_bytes();

  // Pass 1: the timed single-thread reference.
  auto reference_config = base_config(participants);
  reference_config.threads = 1;
  const double t0 = study::sweep_wall_clock_s();
  const auto reference = run_fleet(reference_config);
  const double wall_s = study::sweep_wall_clock_s() - t0;
  if (!reference.complete) {
    std::fprintf(stderr, "exp_fleet_population: reference pass did not complete\n");
    return 1;
  }
  const std::vector<std::uint8_t> reference_bytes = reference.aggregates.to_bytes();

  // Passes 2 and 3: same study on 2 and 8 threads — the merged
  // aggregates must be byte-identical to the reference.
  bool bit_identical = true;
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    auto config = base_config(participants);
    config.threads = threads;
    const auto result = run_fleet(config);
    const bool same = result.complete && result.aggregates.to_bytes() == reference_bytes;
    if (!same) {
      std::fprintf(stderr, "exp_fleet_population: %zu-thread pass DIVERGED from reference\n",
                   threads);
      bit_identical = false;
    }
  }

  // Pass 4: force a checkpoint at half the population, resume in a
  // second engine, and compare the finished bytes against the
  // uninterrupted reference.
  const std::string checkpoint_path = "BENCH_exp_fleet_population.ckpt";
  std::remove(checkpoint_path.c_str());
  bool fleet_resume_bit_identical = true;
  {
    auto config = base_config(participants);
    config.threads = 2;
    config.checkpoint_path = checkpoint_path;
    const auto half = run_fleet(config, participants / 2);
    if (half.complete || half.status != distscroll::util::CheckpointStatus::Ok) {
      std::fprintf(stderr, "exp_fleet_population: forced half-run failed (%s)\n",
                   half.error.empty() ? "unexpected completion" : half.error.c_str());
      fleet_resume_bit_identical = false;
    } else {
      config.resume = true;
      const auto resumed = run_fleet(config);
      fleet_resume_bit_identical = resumed.complete && resumed.resumed &&
                                   resumed.resumed_from == half.cursor &&
                                   resumed.aggregates.to_bytes() == reference_bytes;
      if (!fleet_resume_bit_identical) {
        std::fprintf(stderr, "exp_fleet_population: resumed run DIVERGED from reference\n");
      }
    }
  }
  std::remove(checkpoint_path.c_str());

  const std::size_t rss_final = study::sweep_peak_rss_bytes();
  const double rss_growth =
      rss_baseline > 0 ? static_cast<double>(rss_final) / static_cast<double>(rss_baseline) : 0.0;

  const auto& agg = reference.aggregates;
  const double trials = static_cast<double>(agg.trials());
  std::printf("[exp_fleet_population] %" PRIu64 " participants, %" PRIu64 " trials: %.2f s "
              "(%.0f participants/s, 1 thread)\n",
              agg.participants(), agg.trials(), wall_s,
              wall_s > 0.0 ? static_cast<double>(participants) / wall_s : 0.0);
  std::printf("  success %.4f  wrong/trial %.4f  time mean %.3fs p50 %.3fs p90 %.3fs p99 %.3fs\n",
              static_cast<double>(agg.successes()) / trials,
              static_cast<double>(agg.wrong_selections()) / trials, agg.time_s().mean(),
              agg.time_sketch().quantile(0.50), agg.time_sketch().quantile(0.90),
              agg.time_sketch().quantile(0.99));
  std::printf("  thread bit-identity %s, resume bit-identity %s, peak RSS %.1f MiB "
              "(%.3fx of %" PRIu64 "-participant baseline)\n",
              bit_identical ? "OK" : "DIVERGED",
              fleet_resume_bit_identical ? "OK" : "DIVERGED",
              static_cast<double>(rss_final) / (1024.0 * 1024.0), rss_growth, small);

  distscroll::util::BenchReport report;
  report.name = "exp_fleet_population";
  report.cells = static_cast<std::size_t>(participants);
  report.threads = 1;  // the timed reference pass
  report.hardware_threads = study::resolve_sweep_threads(0);
  report.sequential_wall_s = wall_s;
  report.parallel_wall_s = wall_s;
  report.speedup = 1.0;
  report.bit_identical = bit_identical;
  report.tracing_compiled = distscroll::obs::Tracer::compiled_in();
  report.peak_rss_bytes = rss_final;
  report.fleet_participants = static_cast<std::size_t>(participants);
  report.fleet_participants_per_s =
      wall_s > 0.0 ? static_cast<double>(participants) / wall_s : 0.0;
  report.fleet_resume_bit_identical = fleet_resume_bit_identical;
  report.fleet_rss_growth = rss_growth;
  if (!distscroll::util::write_bench_report(report)) {
    std::fprintf(stderr, "exp_fleet_population: could not write BENCH json\n");
    return 1;
  }

  const bool rss_flat = rss_growth > 0.0 && rss_growth <= 1.10;
  if (!rss_flat) {
    std::fprintf(stderr, "exp_fleet_population: peak RSS grew %.3fx (flatness limit 1.10x)\n",
                 rss_growth);
  }
  return (bit_identical && fleet_resume_bit_identical && rss_flat) ? 0 : 1;
}
