// Exact inline rounding for the per-sample hot paths.
//
// The ADC quantisers and the continuous techniques' cursors round a
// value already clamped to [0, max] on every sample. std::lround is an
// out-of-line libm call there; round_nonneg is the same function inline.
#pragma once

#include <cstddef>

namespace distscroll::util {

/// Round half away from zero, for finite x >= 0 within size_t range.
/// Equals std::lround(x) bit for bit: the truncation r is exact, and so
/// is x - r (the fractional part of a double is representable), so the
/// half-way comparison sees the true fraction.
[[nodiscard]] inline std::size_t round_nonneg(double x) {
  const auto r = static_cast<std::size_t>(x);
  return r + static_cast<std::size_t>(x - static_cast<double>(r) >= 0.5);
}

}  // namespace distscroll::util
