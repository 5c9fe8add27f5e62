#include "sensors/adxl311.h"

#include <algorithm>
#include <cmath>

namespace distscroll::sensors {

util::Volts Adxl311Model::output_x(util::Radians pitch, util::Gs dynamic_x) {
  const double g_total = std::sin(pitch.value) + dynamic_x.value;
  double v = config_.zero_g_volts + g_total * config_.sensitivity_v_per_g;
  v += rng_.gaussian(0.0, config_.noise_volts);
  return util::Volts{std::clamp(v, 0.0, 3.0)};
}

util::Radians Adxl311Model::tilt_from_volts(util::Volts v) const {
  const double g = (v.value - config_.zero_g_volts) / config_.sensitivity_v_per_g;
  return util::Radians{std::asin(std::clamp(g, -1.0, 1.0))};
}

}  // namespace distscroll::sensors
