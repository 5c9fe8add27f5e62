// Unit tests for buttons (with mechanical bounce), the firmware
// debouncer and the button panel that scans them.
#include <gtest/gtest.h>

#include <vector>

#include "hw/gpio.h"
#include "input/button.h"
#include "input/button_panel.h"
#include "input/debouncer.h"
#include "sim/event_queue.h"

namespace distscroll::input {
namespace {

struct ButtonFixture : ::testing::Test {
  sim::EventQueue queue;
  hw::Gpio gpio{4};
};

TEST_F(ButtonFixture, PressDrivesPinLowEventually) {
  Button button(gpio, 0, queue, sim::Rng(1));
  button.press();
  queue.run_until(util::Seconds{0.01});
  EXPECT_EQ(gpio.read(0), hw::PinLevel::Low);
  button.release();
  queue.run_until(util::Seconds{0.02});
  EXPECT_EQ(gpio.read(0), hw::PinLevel::High);
}

TEST_F(ButtonFixture, BounceProducesMultipleEdges) {
  // Count level changes of the pin, read every 0.1 ms: bounce edges are
  // at least 4 ms / 7 apart, so no change between two reads is missed.
  const auto count_edges = [&](double duration_s) {
    int edges = 0;
    hw::PinLevel last = gpio.read(0);
    const double end = queue.now().value + duration_s;
    while (queue.now().value < end) {
      queue.run_until(util::Seconds{queue.now().value + 1e-4});
      if (gpio.read(0) != last) ++edges;
      last = gpio.read(0);
    }
    return edges;
  };
  // Try several seeds: at least one press must visibly bounce.
  int max_edges = 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Button button(gpio, 0, queue, sim::Rng(seed));
    const hw::PinLevel before = gpio.read(0);
    button.press();
    // The first contact drives the pin at once, before the first read.
    const int first_contact = gpio.read(0) != before ? 1 : 0;
    max_edges = std::max(max_edges, first_contact + count_edges(0.02));
    button.release();
    count_edges(0.02);
  }
  EXPECT_GT(max_edges, 1);
}

TEST_F(ButtonFixture, SettlesToFinalLevelDespiteBounce) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Button button(gpio, 0, queue, sim::Rng(seed));
    button.press();
    queue.run_until(util::Seconds{queue.now().value + 0.02});
    EXPECT_EQ(gpio.read(0), hw::PinLevel::Low) << "seed " << seed;
    button.release();
    queue.run_until(util::Seconds{queue.now().value + 0.02});
    EXPECT_EQ(gpio.read(0), hw::PinLevel::High) << "seed " << seed;
  }
}

TEST_F(ButtonFixture, RapidRepressSupersedesOldBounce) {
  Button button(gpio, 0, queue, sim::Rng(4));
  button.press();
  button.release();
  button.press();  // before bounce of release finishes
  queue.run_until(util::Seconds{0.05});
  EXPECT_EQ(gpio.read(0), hw::PinLevel::Low);
}

// --- debouncer -------------------------------------------------------------------

/// Feeds `count` samples of `level`; returns the edges tick() reported.
int feed(Debouncer& deb, hw::PinLevel level, int count) {
  int edges = 0;
  for (int i = 0; i < count; ++i) edges += deb.tick(level) ? 1 : 0;
  return edges;
}

TEST(Debouncer, RequiresStableLevels) {
  Debouncer deb;
  // 3 noisy low samples then back high: no press (needs 8 stable).
  EXPECT_EQ(feed(deb, hw::PinLevel::Low, 3), 0);
  EXPECT_EQ(feed(deb, hw::PinLevel::High, 1), 0);
  // 8 consecutive lows: exactly one edge, on the 8th sample.
  EXPECT_EQ(feed(deb, hw::PinLevel::Low, 7), 0);
  EXPECT_TRUE(deb.tick(hw::PinLevel::Low));
  EXPECT_TRUE(deb.pressed());
  // Staying low doesn't re-fire.
  EXPECT_EQ(feed(deb, hw::PinLevel::Low, 20), 0);
}

TEST(Debouncer, ReleaseFiresAfterStableHigh) {
  Debouncer deb;
  EXPECT_EQ(feed(deb, hw::PinLevel::Low, 8), 1);
  EXPECT_EQ(feed(deb, hw::PinLevel::High, 8), 1);
  EXPECT_FALSE(deb.pressed());
}

TEST(Debouncer, BounceWithinWindowIgnored) {
  Debouncer deb;
  // Alternate every 3 ticks forever: never stable, never fires.
  int edges = 0;
  for (int i = 0; i < 60; ++i) {
    edges += deb.tick((i / 3) % 2 ? hw::PinLevel::Low : hw::PinLevel::High) ? 1 : 0;
  }
  EXPECT_EQ(edges, 0);
  EXPECT_FALSE(deb.pressed());
}

// --- button panel ----------------------------------------------------------------

TEST(ButtonPanel, EndToEndThroughGpio) {
  sim::EventQueue queue;
  hw::Gpio gpio(2);
  ButtonPanel panel(gpio, queue, {sim::Rng(5), sim::Rng(6)});
  ASSERT_EQ(panel.size(), 2u);
  std::vector<std::pair<std::size_t, bool>> edges;
  int ms = 0;
  const auto scan_until = [&](int end_ms) {
    for (; ms < end_ms; ++ms) {
      queue.run_until(util::Seconds{ms / 1000.0});
      panel.scan([&](std::size_t pin, bool pressed) { edges.emplace_back(pin, pressed); });
    }
  };

  // 1 kHz firmware scan co-simulated with the bouncing buttons.
  panel.button(1).press();
  scan_until(40);
  EXPECT_TRUE(panel.pressed(1));
  EXPECT_FALSE(panel.pressed(0));
  panel.button(1).release();
  scan_until(80);
  panel.button(0).press();
  scan_until(120);
  panel.button(0).release();
  scan_until(160);
  const std::vector<std::pair<std::size_t, bool>> expected = {
      {1, true}, {1, false}, {0, true}, {0, false}};
  EXPECT_EQ(edges, expected);
  EXPECT_FALSE(panel.pressed(0));
  EXPECT_FALSE(panel.pressed(1));
}

}  // namespace
}  // namespace distscroll::input
