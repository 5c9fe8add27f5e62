// 9 V block battery model.
//
// The prototype is powered by a 9 V block (paper Section 4). We model a
// simple coulomb counter with load-dependent voltage sag so the power
// budget of design alternatives (display brightness, sensor duty cycle)
// can be compared — one of the implicit engineering constraints the
// paper mentions when arguing for sensors over mechanical parts.
#pragma once

#include <string>
#include <vector>

#include "util/units.h"

namespace distscroll::hw {

class Battery {
 public:
  struct Config {
    double capacity_mah = 550.0;  // typical alkaline 9 V block
  };

  Battery() : Battery(Config{}) {}
  explicit Battery(Config config) : config_(config) {}

  /// Register a named consumer with a constant current draw in mA.
  /// Returns the consumer id.
  std::size_t add_consumer(std::string name, double draw_ma);

  [[nodiscard]] double total_draw_ma() const;

  /// Advance battery state by dt at the current total draw.
  void consume(util::Seconds dt);

  /// Terminal voltage under the present load.
  [[nodiscard]] util::Volts voltage() const;

  [[nodiscard]] double remaining_fraction() const;
  [[nodiscard]] bool depleted() const;

  /// Estimated runtime at the current draw, in hours.
  [[nodiscard]] double estimated_runtime_hours() const;

  /// Per-consumer energy share (mAh), index-aligned with add order.
  [[nodiscard]] const std::vector<double>& per_consumer_mah() const { return consumer_mah_; }
  [[nodiscard]] const std::string& consumer_name(std::size_t consumer) const;

 private:
  Config config_;
  struct Consumer {
    std::string name;
    double draw_ma;
  };
  std::vector<Consumer> consumers_;
  std::vector<double> consumer_mah_;
  double consumed_mah_ = 0.0;
};

}  // namespace distscroll::hw
