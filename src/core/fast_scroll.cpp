#include "core/fast_scroll.h"

namespace distscroll::core {

// Auto-repeat period while in the turbo zone.
constexpr util::Seconds kRepeatPeriod{0.12};

int FastScrollMode::on_sample(util::Seconds now, util::AdcCounts counts) {
  return on_zone(now, counts.value > threshold_counts_);
}

int FastScrollMode::on_zone(util::Seconds now, bool in_zone) {
  if (!in_zone) {
    active_ = false;
    return 0;
  }
  if (!active_) {
    // Entering the turbo zone: step immediately, then at repeat pace.
    active_ = true;
    last_step_ = now;
    return 1;
  }
  int steps = 0;
  while (now.value - last_step_.value >= kRepeatPeriod.value) {
    last_step_ = last_step_ + kRepeatPeriod;
    ++steps;
  }
  return steps;
}

}  // namespace distscroll::core
