// Regression and depth tests: behaviours that once broke during
// development (pinned here forever) plus corner cases of the device UI.
#include <gtest/gtest.h>

#include <array>

#include "baselines/distance_scroll.h"
#include "core/distscroll_device.h"
#include "hw/battery.h"
#include "menu/menu_builder.h"
#include "pda/pda_host.h"
#include "wireless/host_logger.h"
#include "wireless/rf_link.h"

namespace distscroll {
namespace {

// --- regression: the sample-and-hold clock bug ----------------------------------
// Gp2d120Model held its internal measurement clock across trials; when a
// new trial restarted time at zero the sensor ignored every sample until
// the stale clock caught up, making later trials absurdly slow. reset()
// must clear the hold.

TEST(Regression, SensorHoldSurvivesClockRestart) {
  sensors::Gp2d120Model sensor({}, sim::Rng(1));
  // Advance the sensor's internal clock far into the future.
  (void)sensor.output(util::Centimeters{10.0}, util::Seconds{100.0});
  sensor.reset();
  // A fresh timeline must produce fresh measurements immediately.
  const double v_near = sensor.output(util::Centimeters{5.0}, util::Seconds{0.0}).value;
  const double v_far = sensor.output(util::Centimeters{25.0}, util::Seconds{0.1}).value;
  EXPECT_GT(v_near, v_far);
}

TEST(Regression, DistanceScrollTrialsDoNotSlowDown) {
  baselines::DistanceScroll technique({}, sim::Rng(2));
  // Ten consecutive "trials", each on its own zero-based clock: the
  // cursor must respond within the first 100 ms every time.
  for (int trial = 0; trial < 10; ++trial) {
    technique.reset(5, 0);
    const auto target_u = technique.target_u(3);
    ASSERT_TRUE(target_u.has_value());
    for (double t = 0.0; t < 0.3; t += 0.005) {
      technique.on_control(util::Seconds{t}, *target_u);
    }
    EXPECT_EQ(technique.cursor(), 3u) << "trial " << trial;
  }
}

// --- regression: serial byte reordering ------------------------------------------
// RfLink once jittered each byte independently; jitter larger than the
// byte spacing reordered bytes and broke every frame's CRC.

TEST(Regression, JitterNeverReordersBytes) {
  sim::EventQueue queue;
  hw::Uart uart;
  wireless::RfLink::Config config;  // its 0.3 ms jitter exceeds the byte time (87 us)
  config.byte_loss_probability = 0.0;
  config.bit_flip_probability = 0.0;
  wireless::RfLink link(config, uart, queue, sim::Rng(3));
  std::vector<std::uint8_t> received;
  link.set_host_sink([&](std::uint8_t b) { received.push_back(b); });
  link.start();
  for (int i = 0; i < 50; ++i) uart.transmit(static_cast<std::uint8_t>(i));
  queue.run_until(util::Seconds{1.0});
  ASSERT_EQ(received.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(received[static_cast<std::size_t>(i)], i);
}

// --- device UI corner cases ----------------------------------------------------------

struct UiFixture : ::testing::Test {
  sim::EventQueue queue;
  double distance_cm = 17.0;

  std::unique_ptr<core::DistScrollDevice> boot(std::unique_ptr<menu::MenuNode>& root,
                                               core::DistScrollDevice::Config config = {}) {
    auto device = std::make_unique<core::DistScrollDevice>(config, *root, queue, sim::Rng(5));
    device->set_distance_provider(
        [this](util::Seconds) { return util::Centimeters{distance_cm}; });
    device->power_on();
    queue.run_until(util::Seconds{queue.now().value + 0.3});
    return device;
  }
};

TEST_F(UiFixture, ShortMenuLeavesLowerLinesBlank) {
  auto root = menu::make_flat_menu(2);
  auto device = boot(root);
  EXPECT_EQ(device->top_display().line_text(0), "Item 001");
  EXPECT_EQ(device->top_display().line_text(1), "Item 002");
  EXPECT_EQ(device->top_display().line_text(2), "");
  EXPECT_EQ(device->top_display().line_text(4), "");
}

TEST_F(UiFixture, WindowPinsAtMenuBottom) {
  auto root = menu::make_flat_menu(8);
  auto device = boot(root);
  distance_cm = device->mapper().centre_distance(0).value;  // nearest = last entry
  queue.run_until(util::Seconds{queue.now().value + 0.6});
  ASSERT_EQ(device->cursor().index(), 7u);
  // Window shows entries 4..8; cursor on the last line.
  EXPECT_EQ(device->top_display().line_text(0), "Item 004");
  EXPECT_EQ(device->top_display().line_text(4), "Item 008");
  EXPECT_TRUE(device->top_display().line_inverted(4));
}

TEST_F(UiFixture, TelemetryReportsButtonBits) {
  auto root = menu::make_flat_menu(4);
  auto device = boot(root);
  wireless::RfLink::Config link_config;
  link_config.byte_loss_probability = 0.0;
  link_config.bit_flip_probability = 0.0;
  wireless::RfLink link(link_config, device->board().uart(), queue, sim::Rng(6));
  wireless::HostLogger logger;
  link.set_host_sink([&](std::uint8_t b) { logger.on_byte(b); });
  link.start();

  device->back_button().press();  // hold button 1
  queue.run_until(util::Seconds{queue.now().value + 0.5});
  ASSERT_TRUE(logger.last_state().has_value());
  EXPECT_TRUE(logger.last_state()->buttons & 0b010);
  device->back_button().release();
  queue.run_until(util::Seconds{queue.now().value + 0.5});
  EXPECT_FALSE(logger.last_state()->buttons & 0b010);
}

TEST_F(UiFixture, DepthReportedInTelemetry) {
  auto root = menu::MenuBuilder("r").submenu("s").item("x").item("y").end().item("z").build();
  auto device = boot(root);
  wireless::RfLink::Config link_config;
  link_config.byte_loss_probability = 0.0;
  link_config.bit_flip_probability = 0.0;
  wireless::RfLink link(link_config, device->board().uart(), queue, sim::Rng(7));
  wireless::HostLogger logger;
  link.set_host_sink([&](std::uint8_t b) { logger.on_byte(b); });
  link.start();

  distance_cm = device->mapper().centre_distance(device->mapper().entries() - 1).value;
  queue.run_until(util::Seconds{queue.now().value + 0.6});
  ASSERT_EQ(device->cursor().index(), 0u);
  device->select_button().press();
  queue.run_until(util::Seconds{queue.now().value + 0.1});
  device->select_button().release();
  queue.run_until(util::Seconds{queue.now().value + 0.5});
  ASSERT_TRUE(logger.last_state().has_value());
  EXPECT_EQ(logger.last_state()->menu_depth, 1);
  EXPECT_EQ(logger.last_state()->level_size, 2);
}

// --- PDA host window -------------------------------------------------------------------

TEST(PdaHostScreen, WindowFollowsCursorInLongMenu) {
  auto root = menu::make_flat_menu(30);
  pda::PdaHost host(*root);  // a 10-line screen
  // Drive the cursor to entry 25 via a distance frame at its island.
  const auto& mapper = host.mapper();
  const std::size_t island = mapper.entries() - 1 - 25;
  const std::uint16_t counts = mapper.islands()[island].centre;
  const std::uint8_t payload[] = {static_cast<std::uint8_t>(counts & 0xFF),
                                  static_cast<std::uint8_t>(counts >> 8)};
  std::array<std::uint8_t, wireless::kMaxEncodedFrame> wire{};
  const std::size_t len = wireless::encode_into(pda::kDistanceFrame, 0, payload, wire);
  for (std::size_t i = 0; i < len; ++i) host.on_byte(wire[i]);
  ASSERT_EQ(host.cursor().index(), 25u);
  const auto screen = host.screen();
  ASSERT_EQ(screen.size(), 10u);
  // Cursor row is inside the window and marked.
  bool marked = false;
  for (const auto& line : screen) {
    if (line.rfind("> ", 0) == 0) {
      marked = true;
      EXPECT_NE(line.find("Item 026"), std::string::npos);
    }
  }
  EXPECT_TRUE(marked);
}

// --- battery voltage property -------------------------------------------------------------

TEST(BatteryProperty, VoltageMonotoneNonIncreasingOverDischarge) {
  hw::Battery battery;
  battery.add_consumer("load", 50.0);
  double prev = battery.voltage().value;
  for (int i = 0; i < 100; ++i) {
    battery.consume(util::Seconds{300.0});
    const double v = battery.voltage().value;
    EXPECT_LE(v, prev + 1e-9);
    prev = v;
  }
}

}  // namespace
}  // namespace distscroll
