// Fitts' law timing for aimed movements.
//
// The paper's first open question (Section 7) cites Hinckley et al.'s
// "Quantitative analysis of scrolling techniques": "So far, we only know
// that Fitts' Law holds for scrolling". Our simulated users time every
// aimed movement with Fitts' law, MT = a + b * log2(A/W + 1) (Shannon
// formulation), so technique comparisons inherit exactly the regularity
// the paper assumes.
#pragma once

#include <algorithm>
#include <cmath>

#include "util/units.h"

namespace distscroll::human {

struct FittsParams {
  double a_seconds = 0.10;      // intercept: reaction/initiation residue
  double b_seconds_per_bit = 0.15;  // slope for forearm reaching movements
};

/// Index of difficulty in bits (Shannon). Amplitude and width in the
/// same unit; width is clamped to a sane minimum.
[[nodiscard]] inline double index_of_difficulty(double amplitude, double width) {
  width = std::max(1e-3, width);
  amplitude = std::max(0.0, amplitude);
  return std::log2(amplitude / width + 1.0);
}

/// Movement time for an aimed movement of `amplitude` onto a target of
/// `width`.
[[nodiscard]] inline util::Seconds movement_time(const FittsParams& params, double amplitude,
                                                 double width) {
  const double id = index_of_difficulty(amplitude, width);
  return util::Seconds{std::max(0.05, params.a_seconds + params.b_seconds_per_bit * id)};
}

}  // namespace distscroll::human
