// Firmware-side driver for a BT96040 behind the I2C bus.
//
// Encapsulates the command framing so the DistScroll firmware works in
// terms of "show these 5 lines, highlight line k" — the menu view — and
// returns the accumulated bus time so the device loop can account for
// display-update latency (a full 5-line redraw at 100 kHz standard mode
// costs ~8 ms, which is why the firmware only redraws on change).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "display/bt96040.h"
#include "hw/i2c.h"
#include "util/units.h"

namespace distscroll::display {

class DisplayDriver {
 public:
  DisplayDriver(hw::I2cBus& bus, std::uint8_t address) : bus_(&bus), address_(address) {}

  /// Set line inversion (menu highlight).
  util::Seconds set_line_inverted(int row, bool inverted);

  /// Convenience: replace the whole panel with up to 5 lines and one
  /// highlighted row (-1 = none). Only redraws lines that changed since
  /// the last show() to keep bus time low.
  util::Seconds show(const std::array<std::string, kTextLines>& lines, int highlighted_row);

  // ds-lint: allow(test-only-api) the missing-panel test reads the NACK; no program output shows it
  [[nodiscard]] bool last_acked() const { return last_acked_; }

 private:
  util::Seconds command(Command cmd, std::initializer_list<std::uint8_t> args);
  util::Seconds text_command(int row, int col, std::string_view text);

  hw::I2cBus* bus_;
  std::uint8_t address_;
  bool last_acked_ = true;
  std::array<std::array<char, kTextColumns>, kTextLines> shadow_{};
  int shadow_highlight_ = -1;
  bool shadow_valid_ = false;
};

}  // namespace distscroll::display
