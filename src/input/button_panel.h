// The firmware's push-button panel: the buttons wired to a Smart-Its
// board's first GPIO pins, one debouncer per button, and the 1 kHz scan
// that reads them (paper Section 4.5). Both firmware models own one:
// core::DistScrollDevice (select, back, aux) and pda::PdaAddon (select,
// back).
#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "hw/gpio.h"
#include "input/button.h"
#include "input/debouncer.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "util/units.h"

namespace distscroll::input {

class ButtonPanel {
 public:
  /// The firmware's button scan period (1 kHz). Trace replay injects
  /// recorded edges on the same grid.
  static constexpr util::Seconds kScanPeriod{1e-3};

  /// One button per stream in `rngs`, on pins 0, 1, ... in that order;
  /// each button bounces from its own stream.
  ButtonPanel(hw::Gpio& gpio, sim::EventQueue& queue, std::initializer_list<sim::Rng> rngs)
      : gpio_(&gpio) {
    keys_.reserve(rngs.size());
    for (const sim::Rng& rng : rngs) keys_.push_back({Button(gpio, keys_.size(), queue, rng), {}});
  }
  // In-flight bounce events hold each button's address.
  ButtonPanel(const ButtonPanel&) = delete;
  ButtonPanel& operator=(const ButtonPanel&) = delete;

  [[nodiscard]] std::size_t size() const { return keys_.size(); }
  [[nodiscard]] Button& button(std::size_t pin) { return keys_[pin].button; }
  /// Debounced state of the button on `pin`.
  [[nodiscard]] bool pressed(std::size_t pin) const { return keys_[pin].debouncer.pressed(); }

  /// One scan: reads the pins in order and hands each debounced edge to
  /// `on_edge(pin, pressed)` before the next pin is read.
  template <typename OnEdge>
  void scan(OnEdge&& on_edge) {
    for (std::size_t pin = 0; pin < keys_.size(); ++pin) {
      Debouncer& debouncer = keys_[pin].debouncer;
      if (debouncer.tick(gpio_->read(pin))) on_edge(pin, debouncer.pressed());
    }
  }

 private:
  struct Key {
    Button button;
    Debouncer debouncer;
  };
  hw::Gpio* gpio_;
  std::vector<Key> keys_;
};

}  // namespace distscroll::input
