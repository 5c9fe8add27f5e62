// Unit tests for buttons (with mechanical bounce) and the firmware
// debouncer.
#include <gtest/gtest.h>

#include "hw/gpio.h"
#include "input/button.h"
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
  int edges = 0;
  gpio.on_edge(0, [&](std::size_t, hw::PinLevel) { ++edges; });
  // Try several seeds: at least one press must visibly bounce.
  int max_edges = 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    edges = 0;
    Button button(gpio, 0, queue, sim::Rng(seed));
    button.press();
    queue.run_until(util::Seconds{queue.now().value + 0.02});
    max_edges = std::max(max_edges, edges);
    button.release();
    queue.run_until(util::Seconds{queue.now().value + 0.02});
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

TEST(Debouncer, RequiresStableLevels) {
  Debouncer deb;
  int presses = 0;
  auto count_press = [&] { ++presses; };  // Callback is non-owning: keep alive
  deb.on_press(count_press);
  // 3 noisy low samples then back high: no press (needs 8 stable).
  for (int i = 0; i < 3; ++i) deb.tick(hw::PinLevel::Low);
  deb.tick(hw::PinLevel::High);
  EXPECT_EQ(presses, 0);
  // 8 consecutive lows: press fires once.
  for (int i = 0; i < 8; ++i) deb.tick(hw::PinLevel::Low);
  EXPECT_EQ(presses, 1);
  EXPECT_TRUE(deb.pressed());
  // Staying low doesn't re-fire.
  for (int i = 0; i < 20; ++i) deb.tick(hw::PinLevel::Low);
  EXPECT_EQ(presses, 1);
}

TEST(Debouncer, ReleaseFiresAfterStableHigh) {
  Debouncer deb;
  int releases = 0;
  auto count_release = [&] { ++releases; };
  deb.on_release(count_release);
  for (int i = 0; i < 8; ++i) deb.tick(hw::PinLevel::Low);
  for (int i = 0; i < 8; ++i) deb.tick(hw::PinLevel::High);
  EXPECT_EQ(releases, 1);
  EXPECT_FALSE(deb.pressed());
}

TEST(Debouncer, BounceWithinWindowIgnored) {
  Debouncer deb;
  int presses = 0;
  auto count_press = [&] { ++presses; };
  deb.on_press(count_press);
  // Alternate every 3 ticks forever: never stable, never fires.
  for (int i = 0; i < 60; ++i) {
    deb.tick((i / 3) % 2 ? hw::PinLevel::Low : hw::PinLevel::High);
  }
  EXPECT_EQ(presses, 0);
}

TEST(DebouncerWithButton, EndToEndThroughGpio) {
  sim::EventQueue queue;
  hw::Gpio gpio(1);
  Button button(gpio, 0, queue, sim::Rng(5));
  Debouncer deb;
  int presses = 0, releases = 0;
  auto count_press = [&] { ++presses; };
  auto count_release = [&] { ++releases; };
  deb.on_press(count_press);
  deb.on_release(count_release);

  // 1 kHz firmware scan co-simulated with the bouncing button.
  button.press();
  for (int ms = 0; ms < 40; ++ms) {
    queue.run_until(util::Seconds{ms / 1000.0});
    deb.tick(gpio.read(0));
  }
  button.release();
  for (int ms = 40; ms < 80; ++ms) {
    queue.run_until(util::Seconds{ms / 1000.0});
    deb.tick(gpio.read(0));
  }
  EXPECT_EQ(presses, 1);
  EXPECT_EQ(releases, 1);
}

}  // namespace
}  // namespace distscroll::input
