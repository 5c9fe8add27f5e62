#include "display/display_driver.h"

#include <algorithm>
#include <cassert>
#include <span>

namespace distscroll::display {

util::Seconds DisplayDriver::command(Command cmd, std::initializer_list<std::uint8_t> args) {
  // Fixed-size frame on the stack: command byte plus at most 7 argument
  // bytes. command() sits on the redraw path that core/'s DS_HOT
  // regions reach on every scroll step, so it must not touch the heap.
  std::array<std::uint8_t, 8> frame{};
  assert(args.size() < frame.size());
  frame[0] = static_cast<std::uint8_t>(cmd);
  std::copy(args.begin(), args.end(), frame.begin() + 1);
  const auto result = bus_->write(address_, std::span(frame.data(), 1 + args.size()));
  last_acked_ = result.acked;
  return result.bus_time;
}

util::Seconds DisplayDriver::text_command(int row, int col, std::string_view text) {
  util::Seconds total = command(Command::SetCursor,
                                {static_cast<std::uint8_t>(row), static_cast<std::uint8_t>(col)});
  // Text payloads are clipped to one 16-column line (the panel discards
  // overflow anyway), so a stack frame buffer covers every case.
  std::array<std::uint8_t, 1 + kTextColumns> frame{};
  frame[0] = static_cast<std::uint8_t>(Command::Text);
  const std::size_t n = std::min(text.size(), static_cast<std::size_t>(kTextColumns));
  for (std::size_t i = 0; i < n; ++i) frame[1 + i] = static_cast<std::uint8_t>(text[i]);
  const auto result = bus_->write(address_, std::span(frame.data(), 1 + n));
  last_acked_ = last_acked_ && result.acked;
  return total + result.bus_time;
}

util::Seconds DisplayDriver::set_line_inverted(int row, bool inverted) {
  return command(Command::InvertLine,
                 {static_cast<std::uint8_t>(row), static_cast<std::uint8_t>(inverted ? 1 : 0)});
}

util::Seconds DisplayDriver::show(const std::array<std::string, kTextLines>& lines,
                                  int highlighted_row) {
  util::Seconds total{0.0};
  for (int row = 0; row < kTextLines; ++row) {
    auto& shadow_line = shadow_[static_cast<std::size_t>(row)];
    // Pad into a stack cell buffer — no per-line string construction on
    // the repaint path.
    std::array<char, kTextColumns> cell;
    cell.fill(' ');
    const std::string& line = lines[static_cast<std::size_t>(row)];
    const std::size_t n = std::min(line.size(), static_cast<std::size_t>(kTextColumns));
    std::copy_n(line.begin(), n, cell.begin());
    const std::string_view padded(cell.data(), cell.size());
    const bool highlight_changed =
        shadow_valid_ && ((shadow_highlight_ == row) != (highlighted_row == row));
    if (shadow_valid_ && shadow_line == cell && !highlight_changed) continue;
    // Order matters: set polarity first so the glyphs render with it.
    total = total + set_line_inverted(row, highlighted_row == row);
    total = total + text_command(row, 0, padded);
    shadow_line = cell;
  }
  shadow_highlight_ = highlighted_row;
  shadow_valid_ = true;
  return total;
}

}  // namespace distscroll::display
