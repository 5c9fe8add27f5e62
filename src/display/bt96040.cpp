#include "display/bt96040.h"

#include <algorithm>

#include "display/font.h"

namespace distscroll::display {

namespace {
constexpr std::size_t index_of(int x, int y) {
  return static_cast<std::size_t>(y) * kDisplayWidth + static_cast<std::size_t>(x);
}
}  // namespace

bool Bt96040::on_write(std::span<const std::uint8_t> data) {
  if (data.empty()) return false;
  const auto cmd = static_cast<Command>(data[0]);
  execute(cmd, data.subspan(1));
  return true;
}

std::vector<std::uint8_t> Bt96040::on_read(std::size_t length) {
  // Status register: bit0 ready (always), bits 2..7 contrast.
  std::vector<std::uint8_t> out(length, 0);
  if (!out.empty()) out[0] = static_cast<std::uint8_t>(0x01 | (contrast_ << 2));
  return out;
}

void Bt96040::clear() {
  framebuffer_.reset();
  for (auto& line : text_shadow_) line.fill(' ');
  inverted_.fill(false);
  cursor_row_ = 0;
  cursor_col_ = 0;
}

void Bt96040::draw_char(int cell_row, int cell_col, char c) {
  if (cell_row < 0 || cell_row >= kTextLines) return;
  if (cell_col < 0 || cell_col >= kTextColumns) return;
  const auto& g = glyph(c);
  const int x0 = cell_col * kGlyphAdvance;
  const int y0 = cell_row * 8;  // 8-pixel text band: 7 glyph rows + 1 gap
  for (int col = 0; col < kGlyphAdvance; ++col) {
    const std::uint8_t bits = (col < kGlyphWidth) ? g[static_cast<std::size_t>(col)] : 0;
    for (int row = 0; row < kGlyphHeight + 1; ++row) {
      const int x = x0 + col;
      const int y = y0 + row;
      if (x >= kDisplayWidth || y >= kDisplayHeight) continue;
      bool on = row < kGlyphHeight && ((bits >> row) & 1u);
      if (inverted_[static_cast<std::size_t>(cell_row)]) on = !on;
      framebuffer_[index_of(x, y)] = on;
    }
  }
  text_shadow_[static_cast<std::size_t>(cell_row)][static_cast<std::size_t>(cell_col)] = c;
}

void Bt96040::execute(Command cmd, std::span<const std::uint8_t> args) {
  switch (cmd) {
    case Command::Clear:
      clear();
      break;
    case Command::SetCursor:
      if (args.size() >= 2) {
        cursor_row_ = std::clamp<int>(args[0], 0, kTextLines - 1);
        cursor_col_ = std::clamp<int>(args[1], 0, kTextColumns - 1);
      }
      break;
    case Command::Text:
      for (std::uint8_t byte : args) {
        if (cursor_col_ >= kTextColumns) break;  // no wrap: lines clip
        draw_char(cursor_row_, cursor_col_, static_cast<char>(byte));
        ++cursor_col_;
      }
      break;
    case Command::SetContrast:
      if (!args.empty()) contrast_ = static_cast<std::uint8_t>(args[0] & 0x3F);
      break;
    case Command::InvertLine:
      if (args.size() >= 2) {
        const int line = std::clamp<int>(args[0], 0, kTextLines - 1);
        const bool invert = args[1] != 0;
        if (inverted_[static_cast<std::size_t>(line)] != invert) {
          inverted_[static_cast<std::size_t>(line)] = invert;
          // Re-render the shadow text with the new polarity.
          for (int col = 0; col < kTextColumns; ++col) {
            draw_char(line, col, text_shadow_[static_cast<std::size_t>(line)][static_cast<std::size_t>(col)]);
          }
        }
      }
      break;
    case Command::Blit:
      if (args.size() >= 3) {
        const int x0 = args[0];
        const int page = args[1];
        const auto bytes = args.subspan(2);
        for (std::size_t i = 0; i < bytes.size(); ++i) {
          const int x = x0 + static_cast<int>(i);
          if (x >= kDisplayWidth) break;
          for (int bit = 0; bit < 8; ++bit) {
            const int y = page * 8 + bit;
            if (y >= kDisplayHeight) break;
            framebuffer_[index_of(x, y)] = (bytes[i] >> bit) & 1u;
          }
        }
      }
      break;
  }
}

bool Bt96040::pixel(int x, int y) const {
  if (x < 0 || x >= kDisplayWidth || y < 0 || y >= kDisplayHeight) return false;
  return framebuffer_[index_of(x, y)];
}

std::string Bt96040::line_text(int line) const {
  if (line < 0 || line >= kTextLines) return {};
  std::string out;
  for (char c : text_shadow_[static_cast<std::size_t>(line)]) out += (c == '\0') ? ' ' : c;
  // Trim trailing spaces for convenience.
  while (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

bool Bt96040::line_inverted(int line) const {
  if (line < 0 || line >= kTextLines) return false;
  return inverted_[static_cast<std::size_t>(line)];
}

std::string Bt96040::render_ascii() const {
  std::string out;
  out.reserve(static_cast<std::size_t>((kDisplayWidth + 3) * (kDisplayHeight + 2)));
  out += '+' + std::string(kDisplayWidth, '-') + "+\n";
  for (int y = 0; y < kDisplayHeight; ++y) {
    out += '|';
    for (int x = 0; x < kDisplayWidth; ++x) out += pixel(x, y) ? '#' : ' ';
    out += "|\n";
  }
  out += '+' + std::string(kDisplayWidth, '-') + "+\n";
  return out;
}

double Bt96040::current_draw_ma() const {
  // COG panel: ~0.4 mA base plus bias ladder scaling with contrast.
  return 0.4 + 0.02 * static_cast<double>(contrast_);
}

}  // namespace distscroll::display
