// Section 7's epistemic anchor: "So far, we only know that Fitt's Law
// holds for scrolling" (citing Hinckley et al.'s quantitative analysis).
//
// This experiment verifies that the same regularity emerges from OUR
// closed-loop participants: for each technique we sweep scroll distance
// A in {1,2,4,8,16} within a 40-entry list, compute the scrolling index
// of difficulty ID = log2(A+1), and regress movement time on ID. A
// technique "obeys Fitts' law" when the regression is linear with high
// R² — the paper's open question Q1 then reduces to comparing slopes
// (bits per second).
//
// The (technique x distance) grid runs as SweepRunner cells (RNG forked
// off the cell index; bit-identical at any thread count), timed into
// BENCH_exp_fitts_law.json.
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

constexpr std::size_t kList = 40;
const std::size_t kDistances[] = {1, 2, 4, 8, 16};
constexpr std::size_t kTrials = 25;

std::unique_ptr<baselines::ScrollTechnique> make_technique(std::size_t which, sim::Rng rng) {
  switch (which) {
    case 0: return std::make_unique<baselines::DistanceScroll>(baselines::DistanceScroll::Config{}, rng);
    case 1: return std::make_unique<baselines::TiltScroll>(baselines::TiltScroll::Config{}, rng);
    case 2: return std::make_unique<baselines::WheelScroll>(baselines::WheelScroll::Config{}, rng);
    case 3: return std::make_unique<baselines::ButtonScroll>();
    default: return std::make_unique<baselines::RadialScroll>();
  }
}

struct CellResult {
  double id_bits = 0.0;
  double mean_time_s = 0.0;

  friend bool operator==(const CellResult&, const CellResult&) = default;
};

// Identical TARGET distribution for every distance: targets come
// from the band [16, 23], which admits start = target +- d for
// every swept d. Without this, conditions would differ in how
// often they hit far-end islands (narrow in ADC counts, noisier)
// or edge islands (artificially easy) — confounding the sweep.
// Shared between the scalar cell body and the batched group body so
// both draw the same task stream.
std::vector<study::SelectionTask> banded_tasks(sim::Rng& task_rng, std::size_t distance) {
  std::vector<study::SelectionTask> tasks;
  while (tasks.size() < kTrials) {
    const auto target = static_cast<std::size_t>(task_rng.uniform_int(16, 23));
    const bool down = task_rng.bernoulli(0.5);
    study::SelectionTask task;
    task.level_size = kList;
    task.target_index = target;
    task.start_index = down ? target - distance : target + distance;
    tasks.push_back(task);
  }
  return tasks;
}

CellResult run_cell(std::size_t which, std::size_t distance, sim::Rng rng) {
  auto technique = make_technique(which, rng.fork(1));
  sim::Rng task_rng = rng.fork(2);
  const auto tasks = banded_tasks(task_rng, distance);
  const auto records =
      study::run_trials(*technique, tasks, human::UserProfile::average(), rng.fork(3));
  const auto agg = study::aggregate(records);
  CellResult cell;
  cell.id_bits = std::log2(static_cast<double>(distance) + 1.0);
  cell.mean_time_s = agg.mean_time_s;
  return cell;
}

}  // namespace

int main() {
  std::printf("=== Does Fitts' law hold for each scrolling technique? ===\n");
  std::printf("(40-entry list, |target-start| swept, MT regressed on ID=log2(A+1))\n\n");

  const study::SweepGrid grid({5, std::size(kDistances)});
  const auto scalar_cell = [&](std::size_t index, sim::Rng rng) {
    return run_cell(grid.coord(index, 0), kDistances[grid.coord(index, 1)], rng);
  };
  // Batched group body: DistScroll cells (technique axis 0) become
  // BatchTrialRunner lanes drawing the same task/trial streams; the other
  // techniques run the scalar body.
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
      sim::Rng task_rng = rng.fork(2);
      const auto tasks = banded_tasks(task_rng, kDistances[grid.coord(index, 1)]);
      batch.init_cell(k, baselines::DistanceScroll::Config{}, rng.fork(1), tasks,
                      human::UserProfile::average(), rng.fork(3));
      any_lane = true;
    }
    if (any_lane) batch.run();
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t index = first + k;
      if (grid.coord(index, 0) != 0) continue;
      const auto agg = study::aggregate(batch.records(k));
      out[k].id_bits =
          std::log2(static_cast<double>(kDistances[grid.coord(index, 1)]) + 1.0);
      out[k].mean_time_s = agg.mean_time_s;
    }
  };
  const auto cells = study::timed_sweep_batched<CellResult>(
      "exp_fitts_law", grid.cells(), 0xF1775, scalar_cell, batched_group);
  std::printf("\n");

  study::Table table({"technique", "a [s]", "b [s/bit]", "R^2", "TP=1/b [bit/s]"});
  util::CsvWriter csv("exp_fitts_law.csv",
                      {"technique", "distance", "id_bits", "mean_time_s"});

  for (std::size_t which = 0; which < 5; ++which) {
    const std::string name = make_technique(which, sim::Rng(0))->name();
    std::vector<double> ids, times;
    for (std::size_t d = 0; d < std::size(kDistances); ++d) {
      const auto& cell = cells[grid.index({which, d})];
      if (cell.mean_time_s <= 0.0) continue;
      ids.push_back(cell.id_bits);
      times.push_back(cell.mean_time_s);
      csv.row({std::vector<std::string>{name, std::to_string(kDistances[d]),
                                        study::fmt(cell.id_bits, 3),
                                        study::fmt(cell.mean_time_s, 3)}});
    }
    const auto fit = util::fit_linear(ids, times);
    table.add_row({name, study::fmt(fit.intercept, 2), study::fmt(fit.slope, 3),
                   study::fmt(fit.r_squared, 3),
                   fit.slope > 1e-6 ? study::fmt(1.0 / fit.slope, 2) : "inf"});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("expected shape: step/stroke techniques (buttons, wheel, radial)\n"
              "show clearly positive slopes with R^2 near 1 — the classic Fitts\n"
              "regularity the paper cites. DistScroll's absolute mapping (and, at\n"
              "saturated velocity, tilt rate control) yields a much flatter slope:\n"
              "access time barely depends on list distance because the hand jumps\n"
              "directly to the target's position. That flatness is the technique's\n"
              "distinctive signature (and its pitch for medium-size menus).\n");
  std::printf("wrote exp_fitts_law.csv\n");
  return 0;
}
