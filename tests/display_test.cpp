// Unit tests for the BT96040 display model, font and firmware driver.
#include <gtest/gtest.h>

#include "display/bt96040.h"
#include "display/display_driver.h"
#include "display/font.h"
#include "hw/i2c.h"

namespace distscroll::display {
namespace {

// --- font ------------------------------------------------------------------

TEST(Font, PrintableAsciiHasGlyphs) {
  for (char c = ' '; c < 127; ++c) {
    const auto& g = glyph(c);
    EXPECT_EQ(g.size(), 5u);
  }
}

TEST(Font, SpaceIsBlank) {
  for (auto col : glyph(' ')) EXPECT_EQ(col, 0);
}

TEST(Font, UnknownRendersBox) {
  const auto& box = glyph('\x01');
  EXPECT_EQ(box[0], 0x7F);
  EXPECT_EQ(box[4], 0x7F);
}

TEST(Font, DistinctLetters) {
  EXPECT_NE(glyph('A'), glyph('B'));
  EXPECT_NE(glyph('a'), glyph('A'));
  EXPECT_NE(glyph('0'), glyph('O'));
}

// --- raw panel commands ------------------------------------------------------

std::vector<std::uint8_t> cmd(Command c, std::initializer_list<std::uint8_t> args) {
  std::vector<std::uint8_t> frame;
  frame.reserve(1 + args.size());
  frame.push_back(static_cast<std::uint8_t>(c));
  for (std::uint8_t a : args) frame.push_back(a);
  return frame;
}

TEST(Bt96040, GeometryMatchesPaper) {
  // "two displays with a resolution of 40x96 pixels each (5 lines in
  // text mode)".
  EXPECT_EQ(kDisplayWidth, 96);
  EXPECT_EQ(kDisplayHeight, 40);
  EXPECT_EQ(kTextLines, 5);
}

TEST(Bt96040, TextRendersPixels) {
  Bt96040 panel;
  auto frame = cmd(Command::Text, {});
  frame.push_back('H');
  panel.on_write(frame);
  bool any = false;
  for (int x = 0; x < kGlyphAdvance && !any; ++x) {
    for (int y = 0; y < 8 && !any; ++y) any = panel.pixel(x, y);
  }
  EXPECT_TRUE(any);
  EXPECT_EQ(panel.line_text(0), "H");
}

TEST(Bt96040, CursorPositionsText) {
  Bt96040 panel;
  panel.on_write(cmd(Command::SetCursor, {2, 3}));
  auto frame = cmd(Command::Text, {});
  frame.push_back('X');
  panel.on_write(frame);
  EXPECT_EQ(panel.line_text(2), "   X");
  EXPECT_EQ(panel.line_text(0), "");
}

TEST(Bt96040, TextClipsAtLineEnd) {
  Bt96040 panel;
  auto frame = cmd(Command::Text, {});
  for (int i = 0; i < 25; ++i) frame.push_back('A' + (i % 26));
  panel.on_write(frame);
  EXPECT_EQ(panel.line_text(0).size(), static_cast<std::size_t>(kTextColumns));
  EXPECT_EQ(panel.line_text(1), "");  // no wrap
}

TEST(Bt96040, ClearErasesEverything) {
  Bt96040 panel;
  auto frame = cmd(Command::Text, {});
  frame.push_back('Z');
  panel.on_write(frame);
  panel.on_write(cmd(Command::Clear, {}));
  for (int y = 0; y < kDisplayHeight; ++y) {
    for (int x = 0; x < kDisplayWidth; ++x) EXPECT_FALSE(panel.pixel(x, y));
  }
  EXPECT_EQ(panel.line_text(0), "");
}

TEST(Bt96040, InvertLineFlipsPolarity) {
  Bt96040 panel;
  auto frame = cmd(Command::Text, {});
  frame.push_back('I');
  panel.on_write(frame);
  const bool before = panel.pixel(0, 0);
  panel.on_write(cmd(Command::InvertLine, {0, 1}));
  EXPECT_TRUE(panel.line_inverted(0));
  EXPECT_NE(panel.pixel(0, 0), before);
  panel.on_write(cmd(Command::InvertLine, {0, 0}));
  EXPECT_EQ(panel.pixel(0, 0), before);
}

TEST(Bt96040, ContrastClampedTo6Bits) {
  Bt96040 panel;
  panel.on_write(cmd(Command::SetContrast, {0xFF}));
  EXPECT_EQ(panel.contrast(), 0x3F);
}

TEST(Bt96040, ContrastDrivesCurrentDraw) {
  Bt96040 dim, bright;
  dim.on_write(cmd(Command::SetContrast, {1}));
  bright.on_write(cmd(Command::SetContrast, {63}));
  EXPECT_LT(dim.current_draw_ma(), bright.current_draw_ma());
}

TEST(Bt96040, BlitWritesRawColumns) {
  Bt96040 panel;
  panel.on_write(cmd(Command::Blit, {10, 1, 0xFF}));  // column 10, page 1
  for (int bit = 0; bit < 8; ++bit) EXPECT_TRUE(panel.pixel(10, 8 + bit));
  EXPECT_FALSE(panel.pixel(11, 8));
}

TEST(Bt96040, EmptyWriteNacks) {
  Bt96040 panel;
  EXPECT_FALSE(panel.on_write({}));
}

TEST(Bt96040, StatusReadReportsReadyAndContrast) {
  Bt96040 panel;
  panel.on_write(cmd(Command::SetContrast, {5}));
  const auto data = panel.on_read(1);
  ASSERT_EQ(data.size(), 1u);
  EXPECT_EQ(data[0] & 0x01, 0x01);
  EXPECT_EQ(data[0] >> 2, 5);
}

// --- driver --------------------------------------------------------------------

struct DriverFixture : ::testing::Test {
  hw::I2cBus bus;
  Bt96040 panel;
  DisplayDriver driver{bus, 0x3C};

  DriverFixture() { bus.attach(0x3C, &panel); }
};

TEST_F(DriverFixture, ShowRendersLinesWithHighlight) {
  driver.show({"Inbox", "Outbox", "Drafts", "", ""}, 1);
  EXPECT_EQ(panel.line_text(0), "Inbox");
  EXPECT_EQ(panel.line_text(1), "Outbox");
  EXPECT_TRUE(panel.line_inverted(1));
  EXPECT_FALSE(panel.line_inverted(0));
}

TEST_F(DriverFixture, ShowOnlyRedrawsChangedLines) {
  driver.show({"A", "B", "C", "D", "E"}, 0);
  const auto before = bus.transactions();
  driver.show({"A", "B", "C", "D", "E"}, 0);  // identical
  EXPECT_EQ(bus.transactions(), before);      // nothing sent
  driver.show({"A", "X", "C", "D", "E"}, 0);  // one line changed
  EXPECT_GT(bus.transactions(), before);
  EXPECT_EQ(panel.line_text(1), "X");
}

TEST_F(DriverFixture, MovingHighlightRedrawsBothLines) {
  driver.show({"A", "B", "C", "D", "E"}, 0);
  driver.show({"A", "B", "C", "D", "E"}, 2);
  EXPECT_FALSE(panel.line_inverted(0));
  EXPECT_TRUE(panel.line_inverted(2));
}

TEST_F(DriverFixture, BusTimeForFullRedrawIsMilliseconds) {
  const auto t = driver.show({"0123456789ABCDEF", "0123456789ABCDEF", "0123456789ABCDEF",
                              "0123456789ABCDEF", "0123456789ABCDEF"},
                             0);
  // 5 lines x (invert cmd + cursor cmd + 17-byte text) at 100 kHz:
  // several milliseconds — why the firmware diffs lines.
  EXPECT_GT(t.value, 5e-3);
  EXPECT_LT(t.value, 25e-3);
}

TEST_F(DriverFixture, MissingPanelReportsNack) {
  DisplayDriver ghost(bus, 0x55);
  ghost.show({"A", "B", "C", "D", "E"}, 0);
  EXPECT_FALSE(ghost.last_acked());
}

}  // namespace
}  // namespace distscroll::display
