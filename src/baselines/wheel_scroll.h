// Pull-wheel scrolling in the style of Rantanen et al.'s YoYo interface
// (paper Section 2): a retractable cord turns a wheel; pulled length is
// the input, a spring retracts it. One pull is one "stroke"; during
// retraction the wheel freewheels (no input). Scrolling direction is a
// mode toggled by how the stroke starts in the real device; here the
// planner engages the clutch with a signed direction.
//
// Unlike DistScroll it has moving mechanical parts (the paper's
// argument for an all-solid-state design) — modelled as a jam
// probability per stroke that costs recovery time.
#pragma once

#include "baselines/scroll_technique.h"
#include "sim/random.h"

namespace distscroll::baselines {

class WheelScroll final : public ScrollTechnique {
 public:
  struct Config {
    double stroke_max_cm = 9.0;      // cord travel per pull
    double gain_entries_per_cm = 1.1;
    double jam_probability = 0.01;   // mechanical defect per stroke
    util::Seconds jam_recovery{1.5};
  };

  WheelScroll(Config config, sim::Rng rng) : config_(config), rng_(rng) {}

  [[nodiscard]] std::string name() const override { return "YoYoWheel"; }
  [[nodiscard]] ControlSpec spec() const override {
    return {ControlStyle::RelativeStroke, 0.0, config_.stroke_max_cm, 0.0, 40.0, "cm"};
  }
  void reset(std::size_t level_size, std::size_t start_index) override;
  [[nodiscard]] std::size_t cursor() const override { return cursor_; }
  [[nodiscard]] std::size_t level_size() const override { return level_size_; }
  void on_control(util::Seconds now, double u) override;
  void set_engaged(bool engaged) override {
    engaged_ = engaged;
    if (!engaged) stroke_active_checked_ = false;
  }

  /// The planner sets the direction the next stroke scrolls in.
  void set_direction(int direction) { direction_ = direction >= 0 ? 1 : -1; }
  [[nodiscard]] double gain() const { return config_.gain_entries_per_cm; }
  [[nodiscard]] double stroke_max_cm() const { return config_.stroke_max_cm; }

  /// True while a mechanical jam blocks input; clears at `jam_until_`.
  [[nodiscard]] bool jammed(util::Seconds now) const { return now.value < jam_until_s_; }
  [[nodiscard]] util::Seconds jam_recovery() const { return config_.jam_recovery; }

  /// Pulling a cord works with any glove.
  [[nodiscard]] double glove_sensitivity() const override { return 0.25; }

 private:
  Config config_;
  sim::Rng rng_;
  std::size_t level_size_ = 1;
  double position_ = 0.0;
  std::size_t cursor_ = 0;  // position_ rounded; refreshed when it moves
  bool engaged_ = false;
  int direction_ = 1;
  double last_u_ = 0.0;
  bool have_last_u_ = false;
  bool stroke_active_checked_ = false;
  double jam_until_s_ = -1.0;
};

}  // namespace distscroll::baselines
