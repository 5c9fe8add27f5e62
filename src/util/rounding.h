// Exact inline rounding for the per-sample hot paths, and the one 10-bit
// ADC quantiser built on it.
//
// The ADC quantiser and the continuous techniques' cursors round a value
// already clamped to [0, max] on every sample. std::lround is an
// out-of-line libm call there; round_nonneg is the same function inline.
// adc10_counts is the Smart-Its board's volts -> counts conversion that
// every model of the sensing chain shares (hw::Adc10, the Section 7
// DistanceScroll technique, the expected-count curve and the figures).
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

/// 10-bit quantisation of `volts` against `vref`: scale to 0..1023, add
/// `noise_lsb` (a conversion-noise draw in LSBs; 0 for the noiseless
/// expected count), clamp, round.
[[nodiscard]] inline AdcCounts adc10_counts(double volts, double vref, double noise_lsb) {
  double counts = volts / vref * 1023.0;
  counts += noise_lsb;
  counts = std::clamp(counts, 0.0, 1023.0);
  return AdcCounts{static_cast<std::uint16_t>(round_nonneg(counts))};
}

}  // namespace distscroll::util
