// Analog Devices ADXL311JE two-axis accelerometer model.
//
// Present on the DistScroll add-on board (paper Section 4.3); unused by
// the distance technique itself but included by the authors "to
// reproduce results published by others" — i.e. the tilt-scrolling
// baselines (Rock'n'Scroll, TiltText, Unigesture). We use it exactly for
// that: baselines::TiltScroll reads tilt through this model.
//
// Static orientation maps to acceleration: a_x = g*sin(pitch); the
// analog output is mid-supply at 0 g with the datasheet sensitivity of
// ~174 mV/g. Only the X (pitch) axis is modelled: it is the one the tilt
// baseline reads.
#pragma once

#include "sim/random.h"
#include "util/units.h"

namespace distscroll::sensors {

class Adxl311Model {
 public:
  struct Config {
    /// Broadband noise through the bandwidth cap; tests set it to 0 to
    /// read the noiseless transfer.
    double noise_volts = 0.004;
  };

  Adxl311Model(Config config, sim::Rng rng) : config_(config), rng_(rng) {}

  /// Analog X output for a static pitch angle plus dynamic acceleration
  /// along the axis.
  [[nodiscard]] util::Volts output_x(util::Radians pitch, util::Gs dynamic_x = util::Gs{0.0});

  /// Host-side inverse: recover the tilt angle from a measured voltage
  /// (clamps to +-1 g before asin).
  [[nodiscard]] util::Radians tilt_from_volts(util::Volts v) const;

 private:
  Config config_;
  sim::Rng rng_;
};

}  // namespace distscroll::sensors
