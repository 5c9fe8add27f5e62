// Section 7, Q1: "Is distance-based scrolling faster, equal or slower
// than other scrolling techniques?" — the comparison the paper leaves
// as future work, run over our simulated participants.
//
// Conditions: 5 techniques x menu sizes {5,10,20,40} x gloves
// {none, thick} x a 6-participant expertise spread, 30 trials per cell
// (ScrollTest-style trial counts: 180 trials per reported condition).
// The grid runs on study::SweepRunner — each cell's RNG forks off the
// cell index, so the parallel run is bit-identical to the sequential
// one; the harness times both and records BENCH_exp_scroll_comparison.json.
// Metrics: mean selection time, error rate, Fitts throughput. Also
// prints the smoothing ablation for DistScroll.
//
// Expected shapes (see DESIGN.md): buttons win very short menus;
// DistScroll is competitive at small/medium sizes and degrades on large
// menus (islands shrink below motor precision); with thick gloves the
// button/touch baselines collapse while DistScroll barely moves — the
// paper's central motivation.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <memory>
#include <span>

#include "baselines/button_scroll.h"
#include "baselines/distance_scroll.h"
#include "baselines/radial_scroll.h"
#include "baselines/tilt_scroll.h"
#include "baselines/wheel_scroll.h"
#include "study/batch_trials.h"
#include "study/report.h"
#include "study/sweep_runner.h"
#include "study/task.h"
#include "study/trial.h"
#include "util/csv.h"
#include "util/stats.h"

using namespace distscroll;

namespace {

constexpr std::size_t kTrials = 30;
constexpr std::size_t kParticipants = 6;
const char* const kTechniques[] = {"DistScroll", "TiltScroll", "YoYoWheel", "ButtonScroll",
                                   "RadialScroll"};
const std::size_t kMenuSizes[] = {5, 10, 20, 40};
const human::Glove kGloves[] = {human::Glove::None, human::Glove::Thick};

std::unique_ptr<baselines::ScrollTechnique> make_technique(const std::string& name,
                                                           sim::Rng rng,
                                                           core::Smoothing smoothing) {
  if (name == "DistScroll") {
    baselines::DistanceScroll::Config config;
    config.scroll.smoothing = smoothing;
    return std::make_unique<baselines::DistanceScroll>(config, rng);
  }
  if (name == "TiltScroll") return std::make_unique<baselines::TiltScroll>(baselines::TiltScroll::Config{}, rng);
  if (name == "YoYoWheel") return std::make_unique<baselines::WheelScroll>(baselines::WheelScroll::Config{}, rng);
  if (name == "ButtonScroll") return std::make_unique<baselines::ButtonScroll>();
  return std::make_unique<baselines::RadialScroll>();
}

struct Condition {
  std::string technique;
  std::size_t menu_size;
  human::Glove glove;
};

/// Mixed pool: expertise spread 0.25..0.75 around the old average-user
/// profile (mean 0.5), stable per participant slot.
double participant_expertise(std::size_t participant) {
  return 0.25 + 0.1 * static_cast<double>(participant);
}

/// One sweep cell = one participant's 30 trials in one condition.
/// Trivially copyable so the parallel/sequential bit-identity check is
/// an exact byte comparison.
struct CellResult {
  std::array<study::TrialRecord, kTrials> records{};

  friend bool operator==(const CellResult&, const CellResult&) = default;
};

CellResult run_cell(const Condition& condition, core::Smoothing smoothing, double expertise,
                    sim::Rng rng) {
  auto technique = make_technique(condition.technique, rng.fork(1), smoothing);
  const auto profile =
      human::UserProfile::average().with_expertise(expertise).with_glove(condition.glove);
  sim::Rng task_rng = rng.fork(2);
  const auto tasks = study::random_tasks(task_rng, condition.menu_size, kTrials);
  const auto records = study::run_trials(*technique, tasks, profile, rng.fork(3));
  CellResult out;
  std::copy(records.begin(), records.end(), out.records.begin());
  return out;
}

/// Merge the participant cells of one condition into one record pool.
std::vector<study::TrialRecord> condition_records(const study::SweepGrid& grid,
                                                  const std::vector<CellResult>& cells,
                                                  std::size_t technique, std::size_t menu,
                                                  std::size_t glove) {
  std::vector<study::TrialRecord> merged;
  merged.reserve(kParticipants * kTrials);
  for (std::size_t p = 0; p < kParticipants; ++p) {
    const auto& cell = cells[grid.index({technique, menu, glove, p})];
    merged.insert(merged.end(), cell.records.begin(), cell.records.end());
  }
  return merged;
}

std::vector<double> success_times(const std::vector<study::TrialRecord>& records) {
  std::vector<double> times;
  for (const auto& r : records) {
    if (r.outcome.success) times.push_back(r.outcome.time_s);
  }
  return times;
}

}  // namespace

int main() {
  // Stable-indexed grid: axes (technique, menu, glove, participant),
  // last axis fastest. Cell RNG = Rng(base_seed).fork(cell index).
  const study::SweepGrid grid({std::size(kTechniques), std::size(kMenuSizes),
                               std::size(kGloves), kParticipants});
  const auto scalar_cell = [&](std::size_t index, sim::Rng rng) {
    const Condition condition{kTechniques[grid.coord(index, 0)],
                              kMenuSizes[grid.coord(index, 1)],
                              kGloves[grid.coord(index, 2)]};
    return run_cell(condition, core::Smoothing::Raw,
                    participant_expertise(grid.coord(index, 3)), rng);
  };
  // Batched group body: DistScroll cells become BatchTrialRunner
  // lanes (same per-cell fork decomposition as run_cell, so the streams
  // are bit-identical); the other techniques run the scalar body.
  const auto batched_group = [&](std::size_t first, std::size_t n,
                                 std::span<CellResult> out, study::SweepRunner& runner) {
    auto& batch = study::BatchTrialRunner::local();
    batch.begin_group(n);
    bool any_lane = false;
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t index = first + k;
      if (grid.coord(index, 0) != 0) {  // not DistScroll
        out[k] = scalar_cell(index, runner.cell_rng(index));
        continue;
      }
      sim::Rng rng = runner.cell_rng(index);
      baselines::DistanceScroll::Config config;
      config.scroll.smoothing = core::Smoothing::Raw;
      const auto profile = human::UserProfile::average()
                               .with_expertise(participant_expertise(grid.coord(index, 3)))
                               .with_glove(kGloves[grid.coord(index, 2)]);
      sim::Rng task_rng = rng.fork(2);
      const auto tasks = study::random_tasks(task_rng, kMenuSizes[grid.coord(index, 1)], kTrials);
      batch.init_cell(k, config, rng.fork(1), tasks, profile, rng.fork(3));
      any_lane = true;
    }
    if (any_lane) batch.run();
    for (std::size_t k = 0; k < n; ++k) {
      if (grid.coord(first + k, 0) != 0) continue;
      const auto records = batch.records(k);
      std::copy(records.begin(), records.end(), out[k].records.begin());
    }
  };
  const auto cells = study::timed_sweep_batched<CellResult>(
      "exp_scroll_comparison", grid.cells(), 0xC0FFEE, scalar_cell, batched_group);
  std::printf("\n");

  util::CsvWriter csv("exp_scroll_comparison.csv",
                      {"technique", "menu_size", "glove", "mean_time_s", "p95_time_s",
                       "success_rate", "errors_per_trial", "throughput_bits_s"});

  for (std::size_t g = 0; g < std::size(kGloves); ++g) {
    const char* glove_name = kGloves[g] == human::Glove::None ? "bare hands" : "THICK GLOVES";
    std::printf("=== Q1 technique comparison — %s ===\n\n", glove_name);
    study::Table table({"technique", "menu", "time[s]", "p95[s]", "success", "err/trial",
                        "TP[bit/s]"});
    for (std::size_t t = 0; t < std::size(kTechniques); ++t) {
      for (std::size_t m = 0; m < std::size(kMenuSizes); ++m) {
        const auto agg = study::aggregate(condition_records(grid, cells, t, m, g));
        const std::string menu = std::to_string(kMenuSizes[m]);
        table.add_row({kTechniques[t], menu, study::fmt(agg.mean_time_s, 2),
                       study::fmt(agg.p95_time_s, 2), study::fmt(agg.success_rate, 2),
                       study::fmt(agg.error_rate, 2), study::fmt(agg.throughput_bits_s, 2)});
        csv.row({std::vector<std::string>{
            kTechniques[t], menu, kGloves[g] == human::Glove::None ? "none" : "thick",
            study::fmt(agg.mean_time_s, 3), study::fmt(agg.p95_time_s, 3),
            study::fmt(agg.success_rate, 3), study::fmt(agg.error_rate, 3),
            study::fmt(agg.throughput_bits_s, 3)}});
      }
    }
    std::printf("%s\n", table.render().c_str());
  }

  std::printf("=== Ablation: DistScroll input smoothing (menu=10, bare hands) ===\n\n");
  {
    const core::Smoothing smoothings[] = {core::Smoothing::Raw, core::Smoothing::Median3,
                                          core::Smoothing::Ema};
    // Same runner contract, separate small sweep: cells = smoothing x
    // participant.
    const study::SweepGrid ablation_grid({std::size(smoothings), kParticipants});
    study::SweepRunner runner({0, 1, 0xABCD});
    const auto ablation_cells = runner.run<CellResult>(
        ablation_grid.cells(), [&](std::size_t index, sim::Rng rng) {
          return run_cell({"DistScroll", 10, human::Glove::None},
                          smoothings[ablation_grid.coord(index, 0)],
                          participant_expertise(ablation_grid.coord(index, 1)), rng);
        });
    study::Table ablation({"smoothing", "time[s]", "success", "err/trial"});
    for (std::size_t s = 0; s < std::size(smoothings); ++s) {
      const char* name = smoothings[s] == core::Smoothing::Raw
                             ? "raw (paper)"
                             : (smoothings[s] == core::Smoothing::Median3 ? "median-3" : "EMA 1/4");
      std::vector<study::TrialRecord> merged;
      for (std::size_t p = 0; p < kParticipants; ++p) {
        const auto& cell = ablation_cells[ablation_grid.index({s, p})];
        merged.insert(merged.end(), cell.records.begin(), cell.records.end());
      }
      const auto agg = study::aggregate(merged);
      ablation.add_row({name, study::fmt(agg.mean_time_s, 2), study::fmt(agg.success_rate, 2),
                        study::fmt(agg.error_rate, 2)});
    }
    std::printf("%s\n", ablation.render().c_str());
  }

  std::printf("=== Credibility of the headline contrasts (Welch t on times) ===\n\n");
  {
    // The contrasts reuse the main grid's trial pools (same data the
    // tables report), 180 trials a side.
    study::Table tstats({"contrast", "means [s]", "|t|", "credible (|t|>2)"});
    struct Contrast {
      const char* name;
      std::size_t technique_a, menu_a, glove_a;
      std::size_t technique_b, menu_b, glove_b;
    };
    // Axis indices: technique {DistScroll=0, ButtonScroll=3}, menu
    // {5:0, 10:1}, glove {none:0, thick:1}.
    const Contrast contrasts[] = {
        {"gloved: DistScroll vs ButtonScroll (menu 10)", 0, 1, 1, 3, 1, 1},
        {"bare: ButtonScroll vs DistScroll (menu 5)", 3, 0, 0, 0, 0, 0},
        {"DistScroll: bare vs gloved (menu 10)", 0, 1, 0, 0, 1, 1},
    };
    for (const auto& contrast : contrasts) {
      const auto ta = success_times(condition_records(grid, cells, contrast.technique_a,
                                                      contrast.menu_a, contrast.glove_a));
      const auto tb = success_times(condition_records(grid, cells, contrast.technique_b,
                                                      contrast.menu_b, contrast.glove_b));
      const double t = std::abs(util::welch_t(ta, tb));
      char means[48];
      std::snprintf(means, sizeof(means), "%.2f vs %.2f",
                    util::summarize(ta).mean, util::summarize(tb).mean);
      tstats.add_row({contrast.name, means, study::fmt(t, 1), t > 2.0 ? "yes" : "no"});
    }
    std::printf("%s\n", tstats.render().c_str());
  }

  std::printf("expected shapes: ButtonScroll fastest on 5-entry menus; DistScroll\n"
              "competitive at 5-20 and degrading at 40 (islands shrink); with thick\n"
              "gloves ButtonScroll/RadialScroll degrade hard while DistScroll and\n"
              "the YoYo wheel barely change — the paper's motivating claim.\n");
  std::printf("wrote exp_scroll_comparison.csv\n");
  return 0;
}
