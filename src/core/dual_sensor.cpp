#include "core/dual_sensor.h"

#include <algorithm>
#include <cmath>

#include "sensors/gp2d120.h"

namespace distscroll::core {

namespace {
// Reject resolutions whose best prediction error exceeds this many ADC
// counts (e.g. a specular glitch on one sensor).
constexpr double kMaxResidualCounts = 40.0;
// The sensors' shared response peak (fold point) and their output at
// touching distance (the rising-branch anchor).
constexpr double kPeakCm = sensors::Gp2d120Model::kPeakCm;
constexpr double kDeadZoneVolts = sensors::Gp2d120Model::kDeadZoneVolts;
}  // namespace

std::optional<util::Centimeters> DualRangeResolver::fold_branch_distance(util::Volts v) const {
  // The rising branch is linear from (0, kDeadZoneVolts) to
  // (kPeakCm, V(peak)) — the same shape Gp2d120Model simulates.
  const double peak_volts = primary_.volts_at(util::Centimeters{kPeakCm}).value;
  if (v.value < kDeadZoneVolts || v.value > peak_volts) return std::nullopt;
  const double t = (v.value - kDeadZoneVolts) / (peak_volts - kDeadZoneVolts);
  return util::Centimeters{t * kPeakCm};
}

std::optional<DualRangeResolver::Resolution> DualRangeResolver::resolve(
    util::AdcCounts primary, util::AdcCounts secondary) const {
  const util::Volts v1 = util::adc10_volts(primary);

  struct Candidate {
    double distance_cm;
    bool folded;
  };
  Candidate candidates[2];
  int n = 0;

  // Monotone-branch candidate (the normal interpretation).
  const double far_d = primary_.distance_at(v1).value;
  if (far_d >= kPeakCm) candidates[n++] = {far_d, false};

  // Fold-back candidate (device too close).
  if (const auto near_d = fold_branch_distance(v1)) {
    candidates[n++] = {near_d->value, true};
  }
  if (n == 0) return std::nullopt;

  // Pick the candidate whose predicted secondary reading matches best.
  // The secondary sits `kOffsetCm` deeper, so for any candidate d it
  // sees d + offset — beyond its own peak for every d >= 0 when
  // offset > peak, i.e. always on the monotone branch.
  std::optional<Resolution> best;
  for (int i = 0; i < n; ++i) {
    const double d2 = candidates[i].distance_cm + kOffsetCm;
    const double predicted = secondary_.counts_at(util::Centimeters{d2}).value;
    const double residual = std::abs(predicted - static_cast<double>(secondary.value));
    if (!best || residual < best->residual_counts) {
      best = Resolution{util::Centimeters{candidates[i].distance_cm}, candidates[i].folded,
                        residual};
    }
  }
  if (best && best->residual_counts > kMaxResidualCounts) return std::nullopt;
  return best;
}

}  // namespace distscroll::core
