// 10-bit successive-approximation ADC, as on the PIC 18F452.
//
// The paper's Fig. 4 caption reads "measured analog voltage at Smart-Its
// input port": the firmware never sees volts, it sees ADC counts. The
// model covers reference-relative quantisation, input clamping and
// optional LSB noise. The ~44 us acquisition+conversion a real PIC
// busy-waits is charged by the firmware as MCU cycles.
#pragma once

#include <cassert>
#include <vector>

#include "sim/random.h"
#include "util/function_ref.h"
#include "util/units.h"

namespace distscroll::hw {

/// An analog signal the ADC can sample: volts as a function of simulated
/// time. Sensors expose themselves as AnalogSource.
///
/// A non-owning delegate, not a std::function: the ADC samples on every
/// firmware tick and the sources are long-lived board wiring (a device's
/// sensors, a test's local lambda), so the two-pointer view removes a
/// type-erased heap callable from the per-sample path. Callers keep the
/// callable alive for the ADC's lifetime.
using AnalogSource = util::FunctionRef<util::Volts(util::Seconds)>;

class Adc10 {
 public:
  struct Config {
    /// Conversion noise in LSBs; tests set it to 0 to read exact counts.
    double noise_lsb_stddev = 0.5;
  };

  Adc10(Config config, sim::Rng rng) : config_(config), rng_(rng) {}

  /// Attach an analog source to a channel; returns the channel number.
  std::size_t attach(AnalogSource source);

  /// Sample `channel` at simulated time `now`. The caller (MCU) is
  /// responsible for accounting the conversion time.
  [[nodiscard]] util::AdcCounts sample(std::size_t channel, util::Seconds now);

 private:
  Config config_;
  sim::Rng rng_;
  std::vector<AnalogSource> channels_;
};

}  // namespace distscroll::hw
