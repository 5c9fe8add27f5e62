// 10-bit successive-approximation ADC, as on the PIC 18F452.
//
// The paper's Fig. 4 caption reads "measured analog voltage at Smart-Its
// input port": the firmware never sees volts, it sees ADC counts. The
// model covers reference-relative quantisation, input clamping, optional
// LSB noise, and the acquisition+conversion time a real PIC pays
// (~12 Tad + acquisition, here lumped into a fixed conversion time).
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
    double vref = 5.0;                       // reference voltage
    util::Seconds conversion_time{44e-6};    // PIC18 typical @ Fosc/32
    double noise_lsb_stddev = 0.5;           // conversion noise in LSBs
  };

  Adc10(Config config, sim::Rng rng) : config_(config), rng_(rng) {}

  /// Attach an analog source to a channel; returns the channel number.
  std::size_t attach(AnalogSource source);

  [[nodiscard]] util::Seconds conversion_time() const { return config_.conversion_time; }

  /// Sample `channel` at simulated time `now`. The caller (MCU) is
  /// responsible for accounting the conversion time.
  [[nodiscard]] util::AdcCounts sample(std::size_t channel, util::Seconds now);

  /// Convert a count back to volts (for host-side analysis/plots).
  [[nodiscard]] util::Volts to_volts(util::AdcCounts counts) const {
    return util::Volts{counts.value * config_.vref / 1023.0};
  }

 private:
  Config config_;
  sim::Rng rng_;
  std::vector<AnalogSource> channels_;
};

}  // namespace distscroll::hw
