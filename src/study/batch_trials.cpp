#include "study/batch_trials.h"

#include <cassert>

#include "study/trial.h"

namespace distscroll::study {

BatchTrialRunner& BatchTrialRunner::local() {
  thread_local BatchTrialRunner runner;
  return runner;
}

void BatchTrialRunner::begin_group(std::size_t lanes) {
  cells_.resize(lanes);
  for (Cell& cell : cells_) {
    cell.active = false;
    cell.tasks.clear();    // keeps capacity
    cell.records.clear();  // keeps capacity
  }
}

void BatchTrialRunner::init_cell(std::size_t lane,
                                 const baselines::DistanceScroll::Config& config,
                                 sim::Rng technique_rng, std::span<const SelectionTask> tasks,
                                 const human::UserProfile& profile, sim::Rng trials_rng) {
  assert(lane < cells_.size());
  Cell& cell = cells_[lane];
  cell.active = true;
  cell.config = config;
  cell.technique_rng = technique_rng;
  cell.tasks.assign(tasks.begin(), tasks.end());
  cell.profile = profile;
  cell.trials_rng = trials_rng;
  cell.records.clear();
  cell.records.reserve(tasks.size());
}

void BatchTrialRunner::run() {
  for (Cell& cell : cells_) {
    if (!cell.active) continue;
    // run_trials, appending into the cell's warmed record vector.
    baselines::DistanceScroll technique(cell.config, cell.technique_rng);
    for (std::size_t i = 0; i < cell.tasks.size(); ++i) {
      cell.records.push_back(run_trial(technique, cell.tasks[i], cell.profile,
                                       cell.trials_rng.fork(i)));
    }
  }
}

std::span<const TrialRecord> BatchTrialRunner::records(std::size_t lane) const {
  assert(lane < cells_.size());
  return cells_[lane].records;
}

}  // namespace distscroll::study
