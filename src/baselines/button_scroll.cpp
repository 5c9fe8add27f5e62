#include "baselines/button_scroll.h"

#include <algorithm>

namespace distscroll::baselines {

constexpr double kRepeatDelayS = 0.5;
constexpr double kRepeatPeriodS = 0.08;  // 12.5 steps/s held

void ButtonScroll::reset(std::size_t level_size, std::size_t start_index) {
  level_size_ = std::max<std::size_t>(1, level_size);
  cursor_ = std::min(start_index, level_size_ - 1);
  holding_ = false;
}

void ButtonScroll::step(int delta) {
  long next = static_cast<long>(cursor_) + delta;
  next = std::clamp(next, 0L, static_cast<long>(level_size_) - 1);
  cursor_ = static_cast<std::size_t>(next);
}

void ButtonScroll::on_step(util::Seconds /*now*/, int delta) { step(delta); }

void ButtonScroll::begin_hold(util::Seconds now, int direction) {
  holding_ = true;
  hold_direction_ = direction >= 0 ? 1 : -1;
  step(hold_direction_);  // initial press registers one step
  next_repeat_s_ = now.value + kRepeatDelayS;
}

void ButtonScroll::poll_hold(util::Seconds now) {
  if (!holding_) return;
  while (now.value >= next_repeat_s_) {
    step(hold_direction_);
    next_repeat_s_ += kRepeatPeriodS;
  }
}

void ButtonScroll::end_hold(util::Seconds now) {
  poll_hold(now);
  holding_ = false;
}

}  // namespace distscroll::baselines
