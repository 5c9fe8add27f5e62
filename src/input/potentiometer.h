// Trimmer potentiometer.
//
// The prototype adjusts display brightness/contrast with a pot (paper
// Section 4.1/4.4). Simple voltage divider: position in [0,1] maps to
// [0, vcc] with a little wiper noise.
#pragma once

#include <algorithm>

#include "sim/random.h"
#include "util/units.h"

namespace distscroll::input {

class Potentiometer {
 public:
  struct Config {
    double vcc = 5.0;
    double wiper_noise_volts = 0.01;
  };

  Potentiometer(Config config, sim::Rng rng) : config_(config), rng_(rng) {}

  // ds-lint: allow(test-only-api) the contrast-trimmer tests turn it; no firmware path reads the trimmer yet
  void set_position(double position) { position_ = std::clamp(position, 0.0, 1.0); }
  [[nodiscard]] double position() const { return position_; }

  [[nodiscard]] util::Volts output() {
    const double v = position_ * config_.vcc + rng_.gaussian(0.0, config_.wiper_noise_volts);
    return util::Volts{std::clamp(v, 0.0, config_.vcc)};
  }

  /// Contrast level 0..63 as the firmware derives it from the ADC read.
  /// Rounded to nearest so endstop positions survive wiper noise (a
  /// truncating read at position 1.0 reported 62 whenever the noise
  /// draw came out negative).
  // ds-lint: allow(test-only-api) pins the paper's 6-bit contrast read; no firmware path applies it yet
  [[nodiscard]] std::uint8_t as_contrast_level() {
    const double level = output().value / config_.vcc * 63.0;
    return static_cast<std::uint8_t>(std::clamp(level + 0.5, 0.0, 63.0));
  }

 private:
  Config config_;
  sim::Rng rng_;
  double position_ = 0.5;
};

}  // namespace distscroll::input
