#include "study/task.h"

#include <cassert>

namespace distscroll::study {

std::vector<SelectionTask> random_tasks(sim::Rng& rng, std::size_t level_size,
                                        std::size_t count) {
  assert(level_size >= 2);
  std::vector<SelectionTask> tasks;
  tasks.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    SelectionTask task;
    task.level_size = level_size;
    task.start_index = static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(level_size) - 1));
    do {
      task.target_index =
          static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(level_size) - 1));
    } while (task.target_index == task.start_index);
    tasks.push_back(task);
  }
  return tasks;
}

}  // namespace distscroll::study
