// Selection-task workloads for the scrolling experiments.
#pragma once

#include <cstddef>
#include <vector>

#include "sim/random.h"

namespace distscroll::study {

/// One flat-list selection: start on `start_index`, acquire and select
/// `target_index` in a level of `level_size` entries.
struct SelectionTask {
  std::size_t level_size = 10;
  std::size_t start_index = 0;
  std::size_t target_index = 0;
};

/// Random targets uniformly over the level (excluding the start).
[[nodiscard]] std::vector<SelectionTask> random_tasks(sim::Rng& rng, std::size_t level_size,
                                                      std::size_t count);

}  // namespace distscroll::study
