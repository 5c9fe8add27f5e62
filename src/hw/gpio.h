// Digital I/O pins.
//
// The push buttons of the prototype hang off GPIO inputs with pull-ups
// (pressed = low, idle = high); every modelled pin is such an input.
// The firmware polls them (input::ButtonPanel's 1 kHz scan).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace distscroll::hw {

enum class PinLevel : std::uint8_t { Low = 0, High = 1 };

class Gpio {
 public:
  /// Every pin starts High through its pull-up.
  explicit Gpio(std::size_t pin_count) : levels_(pin_count, PinLevel::High) {}

  /// Firmware reads a pin (the externally driven level; an undriven pin
  /// reads High via its pull-up).
  [[nodiscard]] PinLevel read(std::size_t pin) const {
    assert(pin < levels_.size());
    return levels_[pin];
  }

  /// External hardware (button model) drives an input pin.
  void drive_external(std::size_t pin, PinLevel level) {
    assert(pin < levels_.size());
    levels_[pin] = level;
  }

 private:
  std::vector<PinLevel> levels_;
};

}  // namespace distscroll::hw
