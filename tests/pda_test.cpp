// Tests for the PDA add-on (dumb sensing dongle) + PDA host pair —
// the paper's planned "minimized version of the DistScroll as add-on
// for a PDA".
#include <gtest/gtest.h>

#include <set>

#include "menu/phone_menu.h"
#include "pda/pda_addon.h"
#include "pda/pda_host.h"
#include "wireless/rf_link.h"

namespace distscroll::pda {
namespace {

struct PdaFixture : ::testing::Test {
  std::unique_ptr<menu::MenuNode> menu_root = menu::make_phone_menu();
  sim::EventQueue queue;
  double distance_cm = 17.0;

  std::unique_ptr<PdaAddon> addon;
  std::unique_ptr<PdaHost> host;

  /// Direct cable: addon UART clocked straight into the host.
  void wire_direct() {
    addon = std::make_unique<PdaAddon>(queue, sim::Rng(1));
    addon->set_distance_provider(
        [this](util::Seconds) { return util::Centimeters{distance_cm}; });
    host = std::make_unique<PdaHost>(*menu_root);
    host->set_addon_sink([this](std::uint8_t byte) { addon->on_host_byte(byte); });
    schedule_drain();  // clock the serial line
    addon->power_on();
  }

  void schedule_drain() {
    queue.schedule_after(addon->uart().byte_time(), [this] {
      if (auto byte = addon->uart().clock_out()) host->on_byte(*byte);
      schedule_drain();
    });
  }

  void settle(double s) { queue.run_until(util::Seconds{queue.now().value + s}); }

  double distance_for_index(std::size_t index) const {
    const auto& mapper = host->mapper();
    return mapper.centre_distance(mapper.entries() - 1 - index).value;
  }

  void click(input::Button& button) {
    button.press();
    settle(0.05);
    button.release();
    settle(0.05);
  }
};

TEST_F(PdaFixture, HostCursorFollowsAddonDistance) {
  wire_direct();
  settle(0.5);
  for (std::size_t target : {0u, 3u, 6u}) {
    distance_cm = distance_for_index(target);
    settle(0.6);
    EXPECT_EQ(host->cursor().index(), target) << target;
  }
  EXPECT_GT(host->frames_received(), 10u);
  EXPECT_EQ(host->crc_errors(), 0u);
}

TEST_F(PdaFixture, ButtonsNavigateTheTree) {
  wire_direct();
  distance_cm = distance_for_index(3);  // Settings
  settle(0.6);
  ASSERT_EQ(host->cursor().highlighted().label(), "Settings");
  click(addon->select_button());
  EXPECT_EQ(host->cursor().depth(), 1u);
  // Mapping rebuilt for the submenu size.
  EXPECT_EQ(host->mapper().entries(), host->cursor().level_size());
  click(addon->back_button());
  EXPECT_EQ(host->cursor().depth(), 0u);
}

TEST_F(PdaFixture, ScreenShowsCursorMarker) {
  wire_direct();
  distance_cm = distance_for_index(2);
  settle(0.6);
  const auto screen = host->screen();
  ASSERT_GE(screen.size(), 3u);
  EXPECT_EQ(screen[2].substr(0, 2), "> ");
  EXPECT_EQ(screen[0].substr(0, 2), "  ");
}

TEST_F(PdaFixture, RateCommandThrottlesAddon) {
  wire_direct();
  settle(1.0);
  const auto before = addon->frames_sent();
  settle(1.0);
  const auto fast_rate = addon->frames_sent() - before;
  host->request_report_divider(10);  // 5x slower than the default 2
  settle(0.2);                        // command propagates
  const auto mid = addon->frames_sent();
  settle(1.0);
  const auto slow_rate = addon->frames_sent() - mid;
  EXPECT_LT(slow_rate * 3, fast_rate);
}

TEST_F(PdaFixture, AddonFirmwareIsTiny) {
  wire_direct();
  // The dumb dongle uses a fraction of the standalone firmware's
  // footprint — the point of moving interpretation to the PDA.
  EXPECT_LE(addon->board().mcu().flash_used(), 4u * 1024u);
  EXPECT_LE(addon->board().mcu().ram_used(), 128u);
}

/// A scripted session of raw ADC counts and button edges pins the
/// host's curve, islands, controller and screen window: the selections
/// it makes, where the cursor ends and the lines it renders.
TEST(PdaHost, ScriptedSessionIsPinned) {
  auto menu_root = menu::make_phone_menu();
  PdaHost host(*menu_root);
  std::uint8_t seq = 0;
  const auto send = [&](wireless::FrameType type, std::uint8_t b0, std::uint8_t b1) {
    const std::uint8_t payload[] = {b0, b1};
    std::array<std::uint8_t, wireless::kMaxEncodedFrame> wire{};
    const std::size_t len = wireless::encode_into(type, seq++, payload, wire);
    for (std::size_t i = 0; i < len; ++i) host.on_byte(wire[i]);
  };
  struct Step {
    std::uint16_t counts;
    int button;  // -1 none, 0 select, 1 back
  };
  const Step script[] = {{420, 0}, {300, -1}, {610, 0}, {250, 1}, {350, 0}, {140, 0},
                         {530, 1}, {200, 0}, {470, 0}, {120, -1}, {390, 0}};
  for (const Step& step : script) {
    for (int i = 0; i < 6; ++i) {
      send(kDistanceFrame, static_cast<std::uint8_t>(step.counts & 0xFF),
           static_cast<std::uint8_t>(step.counts >> 8));
    }
    if (step.button >= 0) {
      send(kButtonFrame, static_cast<std::uint8_t>(step.button), 1);
      send(kButtonFrame, static_cast<std::uint8_t>(step.button), 0);
    }
  }
  std::string selections;
  for (const auto& s : host.selections()) selections += s.label + (s.is_leaf ? "*;" : ";");
  std::string screen;
  for (const auto& line : host.screen()) screen += line + "|";
  EXPECT_EQ(selections, "Messages;Templates*;SIM services*;Organiser;Organiser;Alarm clock*;Alarm clock*;");
  EXPECT_EQ(host.cursor().depth(), 1u);
  EXPECT_EQ(host.cursor().index(), 0u);
  EXPECT_EQ(screen, "> Alarm clock|  Calendar|  To-do list|  Notes|");
}

TEST(PdaOverLossyLink, SurvivesLoss) {
  auto menu_root = menu::make_phone_menu();
  sim::EventQueue queue;
  double distance_cm = 17.0;
  PdaAddon addon(queue, sim::Rng(7));
  addon.set_distance_provider([&](util::Seconds) { return util::Centimeters{distance_cm}; });
  PdaHost host(*menu_root);

  wireless::RfLink::Config link_config;
  link_config.byte_loss_probability = 0.01;
  link_config.bit_flip_probability = 0.002;
  wireless::RfLink link(link_config, addon.uart(), queue, sim::Rng(8));
  link.set_host_sink([&](std::uint8_t byte) { host.on_byte(byte); });
  link.start();
  addon.power_on();

  queue.run_until(util::Seconds{1.0});
  const auto& mapper = host.mapper();
  distance_cm = mapper.centre_distance(mapper.entries() - 1 - 4).value;
  queue.run_until(util::Seconds{3.0});
  // Despite lost/corrupted frames, the cursor converges (state is
  // re-sent continuously — loss only delays, never desyncs).
  EXPECT_EQ(host.cursor().index(), 4u);
  EXPECT_GT(host.frames_received(), 20u);
}

}  // namespace
}  // namespace distscroll::pda
