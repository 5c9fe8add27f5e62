// Dual-ranger disambiguation.
//
// The prototype board carries TWO distance sensors, "only one is used in
// our experiments so far" (paper Section 4). This module puts the second
// one to work: mounted recessed by `kOffsetCm` inside the case, it sees
// the same target `kOffsetCm` farther away. Because the GP2D120 response
// folds back below its ~3.2 cm peak, a single reading is ambiguous
// (paper: "it cannot be detected if the device is moved away (> 4cm) or
// towards the user (< 4 cm)") — but the recessed sensor sits on the
// monotone branch even when the primary has folded back, so comparing
// the two readings resolves the fold.
//
// Resolution algorithm: form both candidate distances from the primary
// reading (monotone-branch inverse and fold-back-branch inverse),
// predict the secondary's reading for each candidate, pick the candidate
// with the smaller prediction error.
#pragma once

#include <optional>

#include "core/sensor_curve.h"
#include "util/units.h"

namespace distscroll::core {

class DualRangeResolver {
 public:
  /// How much deeper the secondary sensor sits in the case.
  static constexpr double kOffsetCm = 3.0;

  DualRangeResolver(SensorCurve primary, SensorCurve secondary)
      : primary_(primary), secondary_(secondary) {}

  struct Resolution {
    util::Centimeters distance{0.0};
    bool folded = false;      // true: the primary was below its peak
    double residual_counts = 0.0;
  };

  /// Resolve the true distance from simultaneous readings. nullopt when
  /// neither candidate explains the secondary reading (sensor glitch).
  [[nodiscard]] std::optional<Resolution> resolve(util::AdcCounts primary,
                                                  util::AdcCounts secondary) const;

  /// The fold-back branch inverse of the primary: distance below the
  /// peak that produces `v` (the linear rising branch Gp2d120Model
  /// simulates, with its peak and touching-distance output).
  [[nodiscard]] std::optional<util::Centimeters> fold_branch_distance(util::Volts v) const;

 private:
  SensorCurve primary_;
  SensorCurve secondary_;
};

}  // namespace distscroll::core
