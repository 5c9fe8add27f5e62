#include "hw/gpio.h"

namespace distscroll::hw {

Gpio::Gpio(std::size_t pin_count) : pins_(pin_count) {}

PinLevel Gpio::read(std::size_t pin) const {
  assert(pin < pins_.size());
  return pins_[pin].level;
}

void Gpio::drive_external(std::size_t pin, PinLevel level) {
  assert(pin < pins_.size());
  if (pins_[pin].level == level) return;
  pins_[pin].level = level;
  if (pins_[pin].on_edge) pins_[pin].on_edge(pin, level);
}

void Gpio::on_edge(std::size_t pin, EdgeCallback cb) {
  assert(pin < pins_.size());
  pins_[pin].on_edge = std::move(cb);
}

}  // namespace distscroll::hw
