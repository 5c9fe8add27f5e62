#include "sensors/adxl311.h"

#include <algorithm>
#include <cmath>

namespace distscroll::sensors {

namespace {
constexpr double kZeroGVolts = 1.5;  // mid-supply (3 V part)
constexpr double kSensitivityVPerG = 0.174;
}  // namespace

util::Volts Adxl311Model::output_x(util::Radians pitch, util::Gs dynamic_x) {
  const double g_total = std::sin(pitch.value) + dynamic_x.value;
  double v = kZeroGVolts + g_total * kSensitivityVPerG;
  v += rng_.gaussian(0.0, config_.noise_volts);
  return util::Volts{std::clamp(v, 0.0, 3.0)};
}

util::Radians Adxl311Model::tilt_from_volts(util::Volts v) const {
  const double g = (v.value - kZeroGVolts) / kSensitivityVPerG;
  return util::Radians{std::asin(std::clamp(g, -1.0, 1.0))};
}

}  // namespace distscroll::sensors
