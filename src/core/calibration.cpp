#include "core/calibration.h"

#include <cassert>
#include <cmath>
#include <functional>

namespace distscroll::core {

CalibrationResult calibrate(std::span<const CalibrationSample> samples,
                            util::Centimeters min_fit_distance) {
  std::vector<double> xs, ys;
  xs.reserve(samples.size());
  ys.reserve(samples.size());
  for (const auto& s : samples) {
    if (s.distance < min_fit_distance) continue;
    xs.push_back(s.distance.value);
    ys.push_back(util::adc10_volts(s.counts).value);
  }
  assert(xs.size() >= 3 && "need at least 3 samples on the monotone branch");

  const util::HyperbolicFit hyper = util::fit_hyperbolic(xs, ys);
  const util::PowerFit power = util::fit_power(xs, ys);

  CalibrationResult result;
  result.curve = SensorCurve(SensorCurve::Params{hyper.a, hyper.k, hyper.c});
  result.r_squared = hyper.r_squared;
  result.log_log_r_squared = power.r_squared;
  result.usable_near = min_fit_distance;
  // Usable range ends where the fitted curve's slope becomes too shallow
  // for the ADC to resolve neighbouring islands: require at least
  // 2 LSB/cm of sensitivity.
  const double lsb_volts = util::adc10_volts(util::AdcCounts{1}).value;
  double far = min_fit_distance.value;
  for (double d = min_fit_distance.value; d <= 60.0; d += 0.5) {
    const double slope =
        std::abs(hyper.a / ((d + hyper.k) * (d + hyper.k)));  // |dV/dd|
    if (slope < 2.0 * lsb_volts) break;
    far = d;
  }
  result.usable_far = util::Centimeters{far};
  return result;
}

std::vector<CalibrationSample> sweep(util::Centimeters from, util::Centimeters to, double step_cm,
                                     const std::function<util::AdcCounts(util::Centimeters)>& read,
                                     int repeats) {
  assert(from < to && step_cm > 0.0 && repeats >= 1);
  std::vector<CalibrationSample> samples;
  for (double d = from.value; d <= to.value + 1e-9; d += step_cm) {
    double sum = 0.0;
    for (int r = 0; r < repeats; ++r) {
      sum += read(util::Centimeters{d}).value;
    }
    samples.push_back({util::Centimeters{d},
                       util::AdcCounts{static_cast<std::uint16_t>(sum / repeats + 0.5)}});
  }
  return samples;
}

}  // namespace distscroll::core
