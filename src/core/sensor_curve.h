// The firmware's model of the GP2D120 response.
//
// The paper (Section 4.2): "We calculated the expected sensor values by
// inserting the distance ... in the function in Figure 5. This function
// is the connection between the sensor characteristic provided by Sharp
// and the analog voltages effectively measured by the Smart-Its."
//
// SensorCurve is exactly that function: the idealised V(d) = a/(d+k)+c
// hyperbola, with conversion to/from ADC counts and the inverse used to
// place islands at perceptually equal distance spacing.
#pragma once

#include <algorithm>

#include "sensors/gp2d120.h"
#include "util/rounding.h"
#include "util/units.h"

namespace distscroll::core {

class SensorCurve {
 public:
  /// Defaults to the GP2D120's datasheet curve.
  struct Params {
    double a = sensors::Gp2d120Model::kCurveA;  // volt*cm
    double k = sensors::Gp2d120Model::kCurveK;  // cm
    double c = sensors::Gp2d120Model::kCurveC;  // volt
  };

  constexpr SensorCurve() = default;
  constexpr explicit SensorCurve(Params params) : params_(params) {}

  [[nodiscard]] constexpr const Params& params() const { return params_; }

  /// Expected analog voltage at a distance (monotone branch only:
  /// callers must stay at or beyond the sensor's response peak).
  [[nodiscard]] util::Volts volts_at(util::Centimeters d) const {
    return util::Volts{params_.a / (d.value + params_.k) + params_.c};
  }

  /// Expected ADC counts at a distance.
  [[nodiscard]] util::AdcCounts counts_at(util::Centimeters d) const {
    return util::adc10_counts(volts_at(d).value, 0.0);
  }

  /// Inverse: distance for a voltage (on the monotone branch).
  [[nodiscard]] util::Centimeters distance_at(util::Volts v) const {
    const double denom = std::max(1e-9, v.value - params_.c);
    return util::Centimeters{params_.a / denom - params_.k};
  }

  [[nodiscard]] util::Centimeters distance_at(util::AdcCounts counts) const {
    return distance_at(util::adc10_volts(counts));
  }

 private:
  Params params_;
};

}  // namespace distscroll::core
