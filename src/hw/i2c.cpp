#include "hw/i2c.h"

#include <cassert>

namespace distscroll::hw {

void I2cBus::attach(std::uint8_t address, I2cSlave* slave) {
  assert(address < 0x80 && slave != nullptr);
  slaves_[address] = slave;
}

I2cBus::Result I2cBus::write(std::uint8_t address, std::span<const std::uint8_t> payload) {
  ++transactions_;
  Result result;
  // Address byte always clocks out, acked or not.
  result.bus_time = byte_time(1 + payload.size());
  auto it = slaves_.find(address);
  if (it == slaves_.end()) {
    // NACK on the address byte: payload never clocks out.
    result.bus_time = byte_time(1);
    return result;
  }
  result.acked = it->second->on_write(payload);
  return result;
}

I2cBus::Result I2cBus::read(std::uint8_t address, std::size_t length) {
  ++transactions_;
  Result result;
  auto it = slaves_.find(address);
  if (it == slaves_.end()) {
    result.bus_time = byte_time(1);
    return result;
  }
  result.data = it->second->on_read(length);
  result.acked = true;
  result.bus_time = byte_time(1 + result.data.size());
  return result;
}

}  // namespace distscroll::hw
