// Tilt-based rate-control scrolling (Rock'n'Scroll / TiltText family,
// paper Section 2).
//
// Wrist tilt beyond a deadband sets cursor velocity; the ADXL311 model
// provides the measured angle (with sensor noise). The paper's critique
// — tilting "changes the viewing angle on the display significantly" and
// "using this input method for a longer period of time is fatiguing" —
// shows up as a readability penalty the planner applies at large angles.
#pragma once

#include "baselines/scroll_technique.h"
#include "sensors/adxl311.h"
#include "sim/random.h"

namespace distscroll::baselines {

class TiltScroll final : public ScrollTechnique {
 public:
  struct Config {
    double deadband_rad = 0.09;
    double max_tilt_rad = 0.55;
    double max_velocity = 14.0;  // entries/s at full tilt
    util::Seconds sample_tick{20e-3};
    sensors::Adxl311Model::Config accel{};
  };

  TiltScroll(Config config, sim::Rng rng)
      : config_(config), accel_(config.accel, rng.fork(1)) {}

  [[nodiscard]] std::string name() const override { return "TiltScroll"; }
  [[nodiscard]] ControlSpec spec() const override {
    return {ControlStyle::RateControl, -config_.max_tilt_rad, config_.max_tilt_rad, 0.0, 0.0,
            "rad"};
  }
  void reset(std::size_t level_size, std::size_t start_index) override;
  [[nodiscard]] std::size_t cursor() const override { return cursor_; }
  [[nodiscard]] std::size_t level_size() const override { return level_size_; }
  void on_control(util::Seconds now, double u) override;
  /// The next accelerometer read. Before the first sample every call
  /// counts. After it, the bound sits tick * 2^-20 below last + tick:
  /// on_control compares the rounded difference now - last with the
  /// tick, and last + tick exactly is not provably below every now that
  /// passes that check. The slack is far wider than the rounding of
  /// either expression for any now below tick * 2^31 (~500 days).
  [[nodiscard]] double next_control_s() const override {
    if (last_sample_s_ < 0.0) return ScrollTechnique::next_control_s();
    return last_sample_s_ + config_.sample_tick.value * kDeadlineSlack;
  }
  /// Buttons are avoided but the wrist does fine angular work; gloves
  /// hurt moderately (stiff cuffs resist wrist flexion).
  [[nodiscard]] double glove_sensitivity() const override { return 0.5; }

 private:
  static constexpr double kDeadlineSlack = 1.0 - 0x1p-20;

  Config config_;
  sensors::Adxl311Model accel_;
  std::size_t level_size_ = 1;
  double position_ = 0.0;  // continuous cursor position
  std::size_t cursor_ = 0;  // position_ rounded; refreshed when it moves
  double last_sample_s_ = -1.0;
};

}  // namespace distscroll::baselines
