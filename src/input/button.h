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
  Button(hw::Gpio& gpio, std::size_t pin, sim::EventQueue& queue, sim::Rng rng)
      : gpio_(&gpio), pin_(pin), queue_(&queue), rng_(rng) {}

  [[nodiscard]] std::size_t pin() const { return pin_; }

  /// The (simulated) user presses the button now. Emits bounce edges
  /// then settles Low (active-low wiring).
  void press();

  /// The user releases; bounces then settles High.
  void release();

 private:
  void emit_bounce(hw::PinLevel final_level);

  hw::Gpio* gpio_;
  std::size_t pin_;
  sim::EventQueue* queue_;
  sim::Rng rng_;
  bool pressed_ = false;
  std::uint64_t generation_ = 0;  // invalidates in-flight bounce edges
};

}  // namespace distscroll::input
