// Sensor calibration: fitting the idealised curve through measured ADC
// samples — the procedure behind the paper's Figures 4 and 5, and the
// prerequisite for island construction ("These properties ... were
// verified in different light conditions and with different clothing").
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "core/sensor_curve.h"
#include "util/stats.h"
#include "util/units.h"

namespace distscroll::core {

struct CalibrationSample {
  util::Centimeters distance;
  util::AdcCounts counts;
};

struct CalibrationResult {
  SensorCurve curve;
  double r_squared = 0.0;          // quality of the hyperbolic fit (Fig. 4)
  double log_log_r_squared = 0.0;  // straightness on log axes (Fig. 5)
  util::Centimeters usable_near{4.0};
  util::Centimeters usable_far{30.0};
};

/// Fit the curve to sweep samples; samples below `min_fit_distance` are
/// excluded (they sit on the non-monotonic rising branch).
[[nodiscard]] CalibrationResult calibrate(std::span<const CalibrationSample> samples,
                                          util::Centimeters min_fit_distance = util::Centimeters{4.0});

/// Workload helper: perform a sweep against a provider of noisy counts
/// (e.g. sensor+ADC in the loop) and return the samples, `repeats`
/// readings averaged per point.
[[nodiscard]] std::vector<CalibrationSample> sweep(
    util::Centimeters from, util::Centimeters to, double step_cm,
    // ds-lint: allow(no-std-function-hot-path) calibration is a one-shot workflow, not a sample path
    const std::function<util::AdcCounts(util::Centimeters)>& read, int repeats = 4);

}  // namespace distscroll::core
