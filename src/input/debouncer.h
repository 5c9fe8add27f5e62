// Firmware-side button debouncer.
//
// Classic counter debouncer as the PIC firmware would run it from a 1 ms
// timer tick: a level change must persist for `stable_ticks` consecutive
// samples before it is accepted. tick() reports each accepted change.
#pragma once

#include "hw/gpio.h"

namespace distscroll::input {

class Debouncer {
 public:
  struct Config {
    /// 8 ms at a 1 kHz tick: > max bounce window. A test seam: the
    /// debounce property test sweeps it.
    int stable_ticks = 8;
  };

  Debouncer() : Debouncer(Config{}) {}
  explicit Debouncer(Config config) : config_(config) {}

  /// Debounced state (active-low wiring: Low = pressed).
  [[nodiscard]] bool pressed() const { return stable_level_ == hw::PinLevel::Low; }

  /// Feed one raw sample per firmware tick. Returns true on an edge:
  /// the debounced state changed with this sample, and pressed() says
  /// which way.
  [[nodiscard]] bool tick(hw::PinLevel raw) {
    if (raw == stable_level_) {
      counter_ = 0;
      return false;
    }
    if (++counter_ < config_.stable_ticks) return false;
    stable_level_ = raw;
    counter_ = 0;
    return true;
  }

 private:
  Config config_;
  hw::PinLevel stable_level_ = hw::PinLevel::High;
  int counter_ = 0;
};

}  // namespace distscroll::input
