// Radial Scroll Tool (Smith & schraefel, paper Section 2): circular
// stylus/finger gestures on a touch screen turn a virtual wheel;
// accumulated angle maps to scrolled entries. Unbounded relative channel
// (you can keep circling). The paper's caveat — "this works only on
// touch screens" and gloves defeat touch sensing — appears as a strong
// glove sensitivity plus a per-trial touch-registration failure
// probability the planner charges time for.
#pragma once

#include "baselines/scroll_technique.h"

namespace distscroll::baselines {

class RadialScroll final : public ScrollTechnique {
 public:
  [[nodiscard]] std::string name() const override { return "RadialScroll"; }
  [[nodiscard]] ControlSpec spec() const override {
    // u = accumulated gesture angle in revolutions; ~2 rev/s is a fast
    // comfortable circling speed.
    return {ControlStyle::RelativeUnbounded, -1e9, 1e9, 0.0, 2.0, "rev"};
  }
  void reset(std::size_t level_size, std::size_t start_index) override;
  [[nodiscard]] std::size_t cursor() const override { return cursor_; }
  [[nodiscard]] std::size_t level_size() const override { return level_size_; }
  void on_control(util::Seconds now, double u) override;

  /// Touch screens and gloves don't mix (capacitive/fine stylus work).
  [[nodiscard]] double glove_sensitivity() const override { return 1.6; }
  /// Needs the stylus/second hand in the classic deployment.
  [[nodiscard]] bool one_handed() const override { return false; }

 private:
  std::size_t level_size_ = 1;
  double position_ = 0.0;
  std::size_t cursor_ = 0;  // position_ rounded; refreshed when it moves
  double last_u_ = 0.0;
  bool have_last_u_ = false;
};

}  // namespace distscroll::baselines
