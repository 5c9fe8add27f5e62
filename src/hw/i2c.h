// I2C bus model.
//
// The two Barton BT96040 chip-on-glass displays hang off the Smart-Its
// I2C bus (paper Section 4.4). We model the master-side transaction API
// the firmware uses (write register/data bursts, reads), 7-bit
// addressing, NACK on missing slaves, and per-byte timing at the
// standard-mode bus clock so display updates cost realistic time.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "util/units.h"

namespace distscroll::hw {

/// A device on the bus. Implementations: display::Bt96040.
class I2cSlave {
 public:
  virtual ~I2cSlave() = default;

  /// Master -> slave burst (after address byte). Return false to NACK.
  virtual bool on_write(std::span<const std::uint8_t> data) = 0;

  /// Slave -> master read of `length` bytes.
  virtual std::vector<std::uint8_t> on_read(std::size_t length) = 0;
};

class I2cBus {
 public:
  /// Attach a slave at a 7-bit address. Replaces any previous slave at
  /// that address.
  void attach(std::uint8_t address, I2cSlave* slave);

  struct Result {
    bool acked = false;
    util::Seconds bus_time{0.0};  // time the transaction occupied the bus
    std::vector<std::uint8_t> data;  // for reads
  };

  /// Master write transaction: START, address+W, payload, STOP.
  Result write(std::uint8_t address, std::span<const std::uint8_t> payload);

  /// Master read transaction: START, address+R, `length` bytes, STOP.
  Result read(std::uint8_t address, std::size_t length);

  // ds-lint: allow(test-only-api) the display tests observe bus traffic with it; no program prints it
  [[nodiscard]] std::uint64_t transactions() const { return transactions_; }

 private:
  static constexpr double kBusHz = 100'000.0;  // standard mode

  [[nodiscard]] util::Seconds byte_time(std::size_t bytes) const {
    // 9 clocks per byte (8 bits + ACK) plus ~2 clocks of START/STOP
    // overhead amortised into the transaction by the caller.
    return util::Seconds{9.0 * static_cast<double>(bytes) / kBusHz};
  }

  std::map<std::uint8_t, I2cSlave*> slaves_;
  std::uint64_t transactions_ = 0;
};

}  // namespace distscroll::hw
