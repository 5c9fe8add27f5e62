// PIC 18F452 data EEPROM model (256 bytes).
//
// The real prototype must keep its per-unit sensor calibration across
// battery changes ("To allow an opening of the device for battery
// changes...", paper Section 4.1) — that is what the PIC's on-chip data
// EEPROM is for. Modelled: byte-addressed read/write, the PIC's slow
// (~4 ms) self-timed write, a total write count, and fault injection
// for corruption tests.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/random.h"
#include "util/units.h"

namespace distscroll::hw {

class Eeprom {
 public:
  static constexpr std::size_t kSize = 256;
  /// Self-timed write completes in ~4 ms on the PIC18.
  static constexpr util::Seconds kWriteTime{4e-3};

  Eeprom() { cells_.fill(0xFF); }  // erased state

  [[nodiscard]] std::uint8_t read(std::size_t address) const {
    assert(address < kSize);
    return cells_[address];
  }

  /// Write one byte; returns the time the firmware must wait.
  util::Seconds write(std::size_t address, std::uint8_t value) {
    assert(address < kSize);
    cells_[address] = value;
    ++writes_;
    return kWriteTime;
  }

  [[nodiscard]] std::vector<std::uint8_t> read_block(std::size_t address, std::size_t length) const {
    assert(address + length <= kSize);
    return {cells_.begin() + static_cast<long>(address),
            cells_.begin() + static_cast<long>(address + length)};
  }

  util::Seconds write_block(std::size_t address, std::span<const std::uint8_t> data) {
    util::Seconds total{0.0};
    for (std::size_t i = 0; i < data.size(); ++i) {
      total = total + write(address + i, data[i]);
    }
    return total;
  }

  [[nodiscard]] std::uint64_t total_writes() const { return writes_; }

  /// Fault injection: flip `bits` random bits anywhere in the array
  /// (data retention loss / a write interrupted by battery removal).
  // ds-lint: allow(test-only-api) the corrupt-record recovery tests inject bit flips with it
  void corrupt(sim::Rng& rng, int bits) {
    for (int i = 0; i < bits; ++i) {
      const auto address = static_cast<std::size_t>(rng.uniform_int(0, kSize - 1));
      cells_[address] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
    }
  }

 private:
  std::array<std::uint8_t, kSize> cells_{};
  std::uint64_t writes_ = 0;
};

}  // namespace distscroll::hw
