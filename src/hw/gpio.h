// Digital I/O pins.
//
// The three push buttons of the prototype hang off GPIO inputs with
// pull-ups (pressed = low, idle = high); every modelled pin is such an
// input. Edge callbacks let the firmware register interrupt-on-change
// handlers the way PORTB interrupts work on the PIC.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <vector>

namespace distscroll::hw {

enum class PinLevel : std::uint8_t { Low = 0, High = 1 };

class Gpio {
 public:
  // ds-lint: allow(no-std-function-hot-path) wired once at board setup; fires per edge, not per sample
  using EdgeCallback = std::function<void(std::size_t pin, PinLevel level)>;

  explicit Gpio(std::size_t pin_count);

  [[nodiscard]] std::size_t pin_count() const { return pins_.size(); }

  /// Firmware reads a pin (the externally driven level; an undriven pin
  /// reads High via its pull-up).
  [[nodiscard]] PinLevel read(std::size_t pin) const;

  /// External hardware (button model) drives an input pin. Fires the
  /// edge callback on change.
  void drive_external(std::size_t pin, PinLevel level);

  /// Register interrupt-on-change for a pin.
  void on_edge(std::size_t pin, EdgeCallback cb);

 private:
  struct Pin {
    PinLevel level = PinLevel::High;  // pull-up default
    EdgeCallback on_edge;
  };
  std::vector<Pin> pins_;
};

}  // namespace distscroll::hw
