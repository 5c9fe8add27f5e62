// Digital I/O pins.
//
// The three push buttons of the prototype hang off GPIO inputs with
// pull-ups (pressed = low, idle = high), and spare outputs drive debug
// signals. Edge callbacks let the firmware register interrupt-on-change
// handlers the way PORTB interrupts work on the PIC.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <vector>

namespace distscroll::hw {

enum class PinLevel : std::uint8_t { Low = 0, High = 1 };
enum class PinMode : std::uint8_t { Input, Output };

class Gpio {
 public:
  // ds-lint: allow(no-std-function-hot-path) wired once at board setup; fires per edge, not per sample
  using EdgeCallback = std::function<void(std::size_t pin, PinLevel level)>;

  explicit Gpio(std::size_t pin_count);

  [[nodiscard]] std::size_t pin_count() const { return pins_.size(); }

  void set_mode(std::size_t pin, PinMode mode);
  [[nodiscard]] PinMode mode(std::size_t pin) const;

  /// Firmware writes an output pin.
  void write(std::size_t pin, PinLevel level);

  /// Firmware reads a pin (inputs reflect the externally driven level;
  /// unconnected inputs read High via pull-up).
  [[nodiscard]] PinLevel read(std::size_t pin) const;

  /// External hardware (button model) drives an input pin. Fires the
  /// edge callback on change.
  void drive_external(std::size_t pin, PinLevel level);

  /// Register interrupt-on-change for a pin.
  void on_edge(std::size_t pin, EdgeCallback cb);

 private:
  struct Pin {
    PinMode mode = PinMode::Input;
    PinLevel level = PinLevel::High;  // pull-up default
    EdgeCallback on_edge;
  };
  std::vector<Pin> pins_;
};

}  // namespace distscroll::hw
