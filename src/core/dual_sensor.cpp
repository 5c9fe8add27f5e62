#include "core/dual_sensor.h"

#include <algorithm>
#include <cmath>

namespace distscroll::core {

namespace {
// Reject resolutions whose best prediction error exceeds this many ADC
// counts (e.g. a specular glitch on one sensor).
constexpr double kMaxResidualCounts = 40.0;
}  // namespace

std::optional<util::Centimeters> DualRangeResolver::fold_branch_distance(util::Volts v) const {
  // The rising branch is linear from (0, dead_zone_volts) to
  // (peak_cm, V(peak)) — the same shape Gp2d120Model simulates.
  const double peak_volts =
      primary_.volts_at(util::Centimeters{config_.peak_cm}).value;
  if (v.value < config_.dead_zone_volts || v.value > peak_volts) return std::nullopt;
  const double t = (v.value - config_.dead_zone_volts) / (peak_volts - config_.dead_zone_volts);
  return util::Centimeters{t * config_.peak_cm};
}

std::optional<DualRangeResolver::Resolution> DualRangeResolver::resolve(
    util::AdcCounts primary, util::AdcCounts secondary) const {
  const double vref = primary_.params().vref;
  const util::Volts v1{primary.value * vref / 1023.0};

  struct Candidate {
    double distance_cm;
    bool folded;
  };
  Candidate candidates[2];
  int n = 0;

  // Monotone-branch candidate (the normal interpretation).
  const double far_d = primary_.distance_at(v1).value;
  if (far_d >= config_.peak_cm) candidates[n++] = {far_d, false};

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
