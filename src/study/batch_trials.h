// Grouped trial execution over DistScroll sweep cells.
//
// BatchTrialRunner runs a group of cells, each the cell body every
// DistScroll bench runs:
//
//   baselines::DistanceScroll technique(config, technique_rng);
//   auto records = run_trials(technique, tasks, profile, trials_rng);
//
// so a grouped sweep gives the scalar records by construction. The
// speed lives where there is only one copy of it: the planner stages
// each control phase (reach, settle, press) and DistanceScroll consumes
// it as one block, pulling a hand sample only when its sensor
// re-measures (ScrollTechnique::on_control_block, DESIGN.md §11).
// The runner only keeps the group's inputs and records in warmed,
// thread-local storage.
//
// Trials within a cell stay sequential ON PURPOSE: the technique's RNG
// streams persist across trials (reset() does not reseed), so only
// whole cells are independent.
#pragma once

#include <span>
#include <vector>

#include "baselines/distance_scroll.h"
#include "human/user_profile.h"
#include "sim/random.h"
#include "study/metrics.h"
#include "study/task.h"

namespace distscroll::study {

class BatchTrialRunner {
 public:
  /// One runner per worker thread: grouped sweeps on a pool stay inside
  /// the determinism contract because cell state never crosses threads.
  static BatchTrialRunner& local();

  /// Start a group of up to `lanes` cells. Clears previous cells and
  /// records; keeps warmed capacity.
  void begin_group(std::size_t lanes);

  /// Bind lane < begin_group's width <- one sweep cell. Tasks are
  /// copied; profile/config by value.
  void init_cell(std::size_t lane, const baselines::DistanceScroll::Config& config,
                 sim::Rng technique_rng, std::span<const SelectionTask> tasks,
                 const human::UserProfile& profile, sim::Rng trials_rng);

  /// Run every bound cell to completion, in lane order.
  void run();

  /// Lane's records after run(); equal to the run_trials() vector for
  /// the same cell inputs.
  [[nodiscard]] std::span<const TrialRecord> records(std::size_t lane) const;

 private:
  struct Cell {
    bool active = false;
    baselines::DistanceScroll::Config config;
    sim::Rng technique_rng{0};
    std::vector<SelectionTask> tasks;
    human::UserProfile profile;
    sim::Rng trials_rng{0};
    std::vector<TrialRecord> records;
  };

  std::vector<Cell> cells_;
};

}  // namespace distscroll::study
