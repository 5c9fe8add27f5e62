#include "baselines/wheel_scroll.h"

#include <algorithm>

namespace distscroll::baselines {

void WheelScroll::reset(std::size_t level_size, std::size_t start_index) {
  level_size_ = std::max<std::size_t>(1, level_size);
  position_ = static_cast<double>(std::min(start_index, level_size_ - 1));
  cursor_ = entry_at(position_, level_size_);
  engaged_ = false;
  have_last_u_ = false;
  jam_until_s_ = -1.0;
}

void WheelScroll::on_control(util::Seconds now, double u) {
  if (!have_last_u_) {
    last_u_ = u;
    have_last_u_ = true;
    return;
  }
  const double du = u - last_u_;
  last_u_ = u;
  if (!engaged_ || jammed(now)) return;
  // Freewheel on retraction: only outward cord travel turns the wheel.
  if (du <= 0.0) return;
  // Each engagement can jam with small probability (checked on the
  // first moving sample of the stroke).
  if (du > 0.0 && !stroke_active_checked_) {
    stroke_active_checked_ = true;
    if (rng_.bernoulli(config_.jam_probability)) {
      jam_until_s_ = now.value + config_.jam_recovery.value;
      return;
    }
  }
  position_ += direction_ * du * config_.gain_entries_per_cm;
  position_ = std::clamp(position_, 0.0, static_cast<double>(level_size_ - 1));
  cursor_ = entry_at(position_, level_size_);
}

}  // namespace distscroll::baselines
