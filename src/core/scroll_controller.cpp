#include "core/scroll_controller.h"

namespace distscroll::core {

void ScrollController::trace_transitions(std::uint16_t before, std::uint16_t after,
                                         bool was_in_gap, bool in_gap,
                                         [[maybe_unused]] std::uint16_t filtered) const {
  if (after != before) {
    if (before != kNoIsland) {
      DS_TRACE(tracer_, obs::EventKind::IslandLeave, before,
               static_cast<std::uint32_t>(to_menu_index(before)));
    }
    DS_TRACE(tracer_, obs::EventKind::IslandEnter, after,
             static_cast<std::uint32_t>(to_menu_index(after)));
  } else if (!in_gap && was_in_gap && after != kNoIsland) {
    // Re-entered the same island after a dead-zone excursion.
    DS_TRACE(tracer_, obs::EventKind::IslandEnter, after,
             static_cast<std::uint32_t>(to_menu_index(after)));
  }
  if (in_gap && !was_in_gap && after != kNoIsland) {
    DS_TRACE(tracer_, obs::EventKind::DeadZoneCross, after, filtered);
  }
}

}  // namespace distscroll::core
