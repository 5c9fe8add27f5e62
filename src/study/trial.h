// Single-trial execution over the abstract-technique interface.
#pragma once

#include "baselines/scroll_technique.h"
#include "human/motion_planner.h"
#include "study/metrics.h"
#include "study/task.h"

namespace distscroll::study {

/// Run one selection task with one participant on one technique.
[[nodiscard]] TrialRecord run_trial(baselines::ScrollTechnique& technique,
                                    const SelectionTask& task,
                                    const human::UserProfile& profile, sim::Rng rng);

/// Run a batch of tasks, reusing the technique.
[[nodiscard]] std::vector<TrialRecord> run_trials(baselines::ScrollTechnique& technique,
                                                  std::span<const SelectionTask> tasks,
                                                  const human::UserProfile& profile, sim::Rng rng);

}  // namespace distscroll::study
