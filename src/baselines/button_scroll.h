// Up/down key scrolling with auto-repeat — the mobile-phone joystick
// baseline ("fine movements, e.g. a finger on a mobile phone joystick",
// paper Section 1). Discrete steps; holding a key repeats after an
// initial delay. Small keys are the part gloves ruin.
#pragma once

#include "baselines/scroll_technique.h"
#include "util/units.h"

namespace distscroll::baselines {

class ButtonScroll final : public ScrollTechnique {
 public:
  [[nodiscard]] std::string name() const override { return "ButtonScroll"; }
  [[nodiscard]] ControlSpec spec() const override {
    return {ControlStyle::DiscreteSteps, -1.0, 1.0, 0.0, 0.0, "key"};
  }
  void reset(std::size_t level_size, std::size_t start_index) override;
  [[nodiscard]] std::size_t cursor() const override { return cursor_; }
  [[nodiscard]] std::size_t level_size() const override { return level_size_; }
  void on_control(util::Seconds /*now*/, double /*u*/) override {}
  void on_step(util::Seconds now, int delta) override;

  /// Hold semantics for auto-repeat: press and keep the key down...
  void begin_hold(util::Seconds now, int direction);
  /// ...poll while held (applies due repeats)...
  void poll_hold(util::Seconds now);
  /// ...and release.
  void end_hold(util::Seconds now);

  /// Tiny tactile keys: maximally glove-sensitive.
  [[nodiscard]] double glove_sensitivity() const override { return 1.0; }

 private:
  void step(int delta);

  std::size_t level_size_ = 1;
  std::size_t cursor_ = 0;
  bool holding_ = false;
  int hold_direction_ = 1;
  double next_repeat_s_ = 0.0;
};

}  // namespace distscroll::baselines
