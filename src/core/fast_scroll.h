// Expert fast-scroll using the < 4 cm sensor branch.
//
// Paper, Section 4.2: "It is also possible — because of the much faster
// declining sensor values between 0 and 4 cms — that this sensor
// characteristic is exploited by advanced users for faster scrolling or
// browsing."
//
// Physically, moving closer than the calibrated near bound first drives
// the output ABOVE the nearest island's count range (the response peak
// sits around ~3 cm). That over-range region is unambiguous, so the
// firmware can treat it as a turbo zone: while the reading stays above
// the threshold, emit auto-repeat steps toward the near end of the menu.
// Going even closer (below the peak) folds the output back into the
// normal range — the genuine ambiguity the paper tolerates; the turbo
// detector deliberately does nothing there, and the mis-selection risk
// is part of the reproduced behaviour.
#pragma once

#include <cstdint>

#include "util/units.h"

namespace distscroll::core {

class FastScrollMode {
 public:
  /// Counts above `threshold_counts` mean "closer than the calibrated
  /// near bound"; typically islands.front().high + margin.
  explicit FastScrollMode(std::uint16_t threshold_counts) : threshold_counts_(threshold_counts) {}

  [[nodiscard]] bool active() const { return active_; }

  /// Feed each ADC sample; returns the number of repeat steps to apply
  /// this sample (0 when inactive or between repeats). Steps are in the
  /// "toward the user" scroll direction; the caller applies direction
  /// mapping.
  int on_sample(util::Seconds now, util::AdcCounts counts);

  /// Same, with the zone decision made externally (e.g. the dual-sensor
  /// resolver's unambiguous "folded" signal).
  int on_zone(util::Seconds now, bool in_zone);

  void reset() {
    active_ = false;
  }

 private:
  std::uint16_t threshold_counts_;
  bool active_ = false;
  util::Seconds last_step_{-1.0};
};

}  // namespace distscroll::core
