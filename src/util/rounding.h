// Exact inline rounding for the per-sample hot paths, and the one 10-bit
// ADC quantiser built on it, with its inverse.
//
// The ADC quantiser and the continuous techniques' cursors round a value
// already clamped to [0, max] on every sample. std::lround is an
// out-of-line libm call there; round_nonneg is the same function inline.
// adc10_counts is the Smart-Its board's volts -> counts conversion that
// every model of the sensing chain shares (hw::Adc10, the Section 7
// DistanceScroll technique, the expected-count curve and the figures);
// adc10_volts is the counts -> volts inverse the curve, the calibration
// fit and the dual-ranger resolver read counts back with. Both use the
// board's one reference voltage.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "util/units.h"

namespace distscroll::util {

/// Round half away from zero, for finite x >= 0 within size_t range.
/// Equals std::lround(x) bit for bit: the truncation r is exact, and so
/// is x - r (the fractional part of a double is representable), so the
/// half-way comparison sees the true fraction.
[[nodiscard]] inline std::size_t round_nonneg(double x) {
  const auto r = static_cast<std::size_t>(x);
  return r + static_cast<std::size_t>(x - static_cast<double>(r) >= 0.5);
}

/// The Smart-Its ADC's reference: 5 V reads as full scale, 1023 counts.
inline constexpr double kAdcVref = 5.0;

/// 10-bit quantisation of `volts` against kAdcVref: scale to 0..1023, add
/// `noise_lsb` (a conversion-noise draw in LSBs; 0 for the noiseless
/// expected count), clamp, round.
[[nodiscard]] inline AdcCounts adc10_counts(double volts, double noise_lsb) {
  double counts = volts / kAdcVref * 1023.0;
  counts += noise_lsb;
  counts = std::clamp(counts, 0.0, 1023.0);
  return AdcCounts{static_cast<std::uint16_t>(round_nonneg(counts))};
}

/// The voltage `counts` stands for: the inverse of the noiseless
/// adc10_counts.
[[nodiscard]] inline Volts adc10_volts(AdcCounts counts) {
  return Volts{counts.value * kAdcVref / 1023.0};
}

}  // namespace distscroll::util
