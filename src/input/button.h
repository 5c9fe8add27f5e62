// Push button with mechanical contact bounce.
//
// The prototype has three buttons (paper Section 4.5): two on the left
// for a finger, one top-right for the thumb — selection is "clicking a
// specified button" (Section 5.1). Real switch contacts bounce for a few
// milliseconds on each transition; the model drives a GPIO pin through
// the event queue with a burst of bounce edges so the firmware's
// debouncer is exercised for real.
#pragma once

#include <cstddef>

#include "hw/gpio.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "util/units.h"

namespace distscroll::input {

class Button {
 public:
  struct Config {
    int max_bounce_edges = 6;
    /// Gloved fingers press more slowly and sometimes only half-press;
    /// probability that a press attempt fails to make contact at all.
    double miss_probability = 0.0;
  };

  Button(Config config, hw::Gpio& gpio, std::size_t pin, sim::EventQueue& queue, sim::Rng rng)
      : config_(config), gpio_(&gpio), pin_(pin), queue_(&queue), rng_(rng) {
    gpio_->set_mode(pin_, hw::PinMode::Input);  // pull-up: idle High
  }

  [[nodiscard]] std::size_t pin() const { return pin_; }

  /// The (simulated) user presses the button now. Emits bounce edges
  /// then settles Low (active-low wiring). Returns false if the press
  /// missed (glove slip) and nothing was driven.
  bool press();

  /// The user releases; bounces then settles High.
  void release();

 private:
  void emit_bounce(hw::PinLevel final_level);

  Config config_;
  hw::Gpio* gpio_;
  std::size_t pin_;
  sim::EventQueue* queue_;
  sim::Rng rng_;
  bool pressed_ = false;
  std::uint64_t generation_ = 0;  // invalidates in-flight bounce edges
};

}  // namespace distscroll::input
