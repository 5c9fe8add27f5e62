// Barton BT96040 chip-on-glass display model (96x40 pixels, I2C).
//
// The prototype carries two of these on the add-on board (paper Section
// 4.4): the upper one shows the menu, the lower one debug/state
// information. In text mode the panel fits 5 lines of 16 characters.
//
// The I2C command protocol is a small register-style set modelled on the
// usual COG controllers (ST7565-era):
//   0x01                       CLEAR
//   0x02 <row> <col>           SET_CURSOR (text cells: row 0..4, col 0..15)
//   0x03 <ascii...>            TEXT at cursor, auto-advancing
//   0x04 <level>               SET_CONTRAST (0..63, driven by the pot)
//   0x05 <line> <invert>       INVERT_LINE (menu highlight)
//   0x06 <x> <page> <bytes...> BLIT raw column bytes (page = 8-pixel band)
#pragma once

#include <array>
#include <bitset>
#include <cstdint>
#include <span>
#include <string>

#include "hw/i2c.h"

namespace distscroll::display {

inline constexpr int kDisplayWidth = 96;
inline constexpr int kDisplayHeight = 40;
inline constexpr int kTextLines = 5;   // the paper's "5 lines in text mode"
inline constexpr int kTextColumns = 16;

enum class Command : std::uint8_t {
  Clear = 0x01,
  SetCursor = 0x02,
  Text = 0x03,
  SetContrast = 0x04,
  InvertLine = 0x05,
  Blit = 0x06,
};

class Bt96040 final : public hw::I2cSlave {
 public:
  Bt96040() = default;

  // --- I2cSlave ----------------------------------------------------------
  bool on_write(std::span<const std::uint8_t> data) override;
  std::vector<std::uint8_t> on_read(std::size_t length) override;  // status byte

  // --- host-side inspection ------------------------------------------------
  [[nodiscard]] bool pixel(int x, int y) const;
  // ds-lint: allow(test-only-api) the tests check SetContrast clamps the register to 6 bits; programs see only its current draw
  [[nodiscard]] std::uint8_t contrast() const { return contrast_; }

  /// The text currently on a line, reconstructed from the text-mode
  /// shadow buffer (raw blits bypass it and show as '\0' cells -> ' ').
  [[nodiscard]] std::string line_text(int line) const;
  [[nodiscard]] bool line_inverted(int line) const;

  /// ASCII-art dump of the framebuffer for examples/debugging.
  [[nodiscard]] std::string render_ascii() const;

  /// Approximate current draw in mA given contrast (backlight-less COG
  /// displays are cheap; contrast drives the bias ladder).
  [[nodiscard]] double current_draw_ma() const;

 private:
  void clear();
  void draw_char(int cell_row, int cell_col, char c);
  void execute(Command cmd, std::span<const std::uint8_t> args);

  std::bitset<static_cast<std::size_t>(kDisplayWidth) * kDisplayHeight> framebuffer_;
  std::array<std::array<char, kTextColumns>, kTextLines> text_shadow_{};
  std::array<bool, kTextLines> inverted_{};
  int cursor_row_ = 0;
  int cursor_col_ = 0;
  std::uint8_t contrast_ = 32;
};

}  // namespace distscroll::display
