#include "baselines/tilt_scroll.h"

#include <algorithm>
#include <cmath>

namespace distscroll::baselines {

void TiltScroll::reset(std::size_t level_size, std::size_t start_index) {
  level_size_ = std::max<std::size_t>(1, level_size);
  position_ = static_cast<double>(std::min(start_index, level_size_ - 1));
  cursor_ = entry_at(position_, level_size_);
  last_sample_s_ = -1.0;
}

void TiltScroll::on_control(util::Seconds now, double u) {
  if (last_sample_s_ < 0.0) {
    last_sample_s_ = now.value;
    return;
  }
  if (now.value - last_sample_s_ < config_.sample_tick.value) return;
  const double dt = now.value - last_sample_s_;
  last_sample_s_ = now.value;

  // Measure the true tilt through the accelerometer (adds noise).
  const util::Volts v = accel_.output_x(util::Radians{u});
  const double measured = accel_.tilt_from_volts(v).value;

  double deflection = 0.0;
  if (std::abs(measured) > config_.deadband_rad) {
    deflection = (std::abs(measured) - config_.deadband_rad) /
                 (config_.max_tilt_rad - config_.deadband_rad);
    deflection = std::clamp(deflection, 0.0, 1.0);
    if (measured < 0.0) deflection = -deflection;
  }
  position_ += deflection * config_.max_velocity * dt;
  position_ = std::clamp(position_, 0.0, static_cast<double>(level_size_ - 1));
  cursor_ = entry_at(position_, level_size_);
}

}  // namespace distscroll::baselines
