// Integration tests for the full DistScrollDevice: firmware loop,
// displays, buttons, menu navigation, telemetry, battery — the system of
// paper Figure 2 exercised end to end.
#include <gtest/gtest.h>

#include <set>

#include "core/distscroll_device.h"
#include "menu/menu_builder.h"
#include "menu/phone_menu.h"
#include "wireless/host_logger.h"
#include "wireless/rf_link.h"

namespace distscroll::core {
namespace {

struct DeviceFixture : ::testing::Test {
  std::unique_ptr<menu::MenuNode> menu_root = menu::make_flat_menu(5);
  sim::EventQueue queue;
  double distance_cm = 17.0;

  std::unique_ptr<DistScrollDevice> make(DistScrollDevice::Config config = {}) {
    auto device = std::make_unique<DistScrollDevice>(config, *menu_root, queue, sim::Rng(99));
    device->set_distance_provider(
        [this](util::Seconds) { return util::Centimeters{distance_cm}; });
    device->power_on();
    return device;
  }

  void settle(double seconds = 0.5) {
    queue.run_until(util::Seconds{queue.now().value + seconds});
  }

  /// Distance whose island maps to `menu_index` under the default
  /// toward-user-scrolls-down mapping.
  static double distance_for_index(const DistScrollDevice& device, std::size_t menu_index) {
    const auto& mapper = device.mapper();
    const std::size_t island = mapper.entries() - 1 - menu_index;
    return mapper.centre_distance(island).value;
  }

  void press(input::Button& button) {
    button.press();
    settle(0.05);
    button.release();
    settle(0.05);
  }
};

TEST_F(DeviceFixture, CursorFollowsDistance) {
  auto device = make();
  for (std::size_t target = 0; target < 5; ++target) {
    distance_cm = distance_for_index(*device, target);
    settle();
    EXPECT_EQ(device->cursor().index(), target) << "target " << target;
  }
}

TEST_F(DeviceFixture, TowardUserScrollsDownByDefault) {
  auto device = make();
  distance_cm = 28.0;  // far
  settle();
  const std::size_t far_index = device->cursor().index();
  distance_cm = 6.0;  // near
  settle();
  EXPECT_GT(device->cursor().index(), far_index);
}

TEST_F(DeviceFixture, DirectionConfigFlipsMapping) {
  DistScrollDevice::Config config;
  config.scroll.direction = ScrollDirection::TowardUserScrollsUp;
  auto device = make(config);
  distance_cm = 6.0;  // near => top of menu
  settle();
  EXPECT_EQ(device->cursor().index(), 0u);
}

TEST_F(DeviceFixture, SelectButtonActivatesLeaf) {
  auto device = make();
  distance_cm = distance_for_index(*device, 2);
  settle();
  std::string activated;
  device->on_leaf_activated([&](const DistScrollDevice::SelectionEvent& e) { activated = e.label; });
  press(device->select_button());
  EXPECT_EQ(activated, "Item 003");
}

TEST_F(DeviceFixture, SubmenuEnterRebuildsMappingAndBackRestores) {
  menu_root = menu::MenuBuilder("r")
                  .submenu("folder")
                  .item("f1")
                  .item("f2")
                  .item("f3")
                  .item("f4")
                  .item("f5")
                  .item("f6")
                  .item("f7")
                  .end()
                  .item("leaf")
                  .build();
  auto device = make();
  distance_cm = distance_for_index(*device, 0);
  settle();
  ASSERT_EQ(device->cursor().index(), 0u);
  press(device->select_button());
  EXPECT_EQ(device->cursor().depth(), 1u);
  EXPECT_EQ(device->mapper().entries(), 7u);  // islands rebuilt for 7 entries
  press(device->back_button());
  EXPECT_EQ(device->cursor().depth(), 0u);
  EXPECT_EQ(device->mapper().entries(), 2u);
}

TEST_F(DeviceFixture, DisplayShowsMenuWithHighlight) {
  auto device = make();
  distance_cm = distance_for_index(*device, 1);
  settle();
  EXPECT_EQ(device->top_display().line_text(0), "Item 001");
  EXPECT_EQ(device->top_display().line_text(1), "Item 002");
  EXPECT_TRUE(device->top_display().line_inverted(1));
  EXPECT_FALSE(device->top_display().line_inverted(0));
}

TEST_F(DeviceFixture, BottomDisplayShowsDebugState) {
  auto device = make();
  settle();
  EXPECT_NE(device->bottom_display().line_text(0).find("cnt"), std::string::npos);
  EXPECT_NE(device->bottom_display().line_text(3).find("bat"), std::string::npos);
}

TEST_F(DeviceFixture, DisplayWindowFollowsCursorInLongMenu) {
  menu_root = menu::make_flat_menu(20);
  auto device = make();
  distance_cm = distance_for_index(*device, 15);
  settle();
  ASSERT_EQ(device->cursor().index(), 15u);
  // Window centres on the cursor: line 2 of 5 shows entry 15.
  EXPECT_EQ(device->top_display().line_text(2), "Item 016");
  EXPECT_TRUE(device->top_display().line_inverted(2));
}

TEST_F(DeviceFixture, HoldingStillCausesNoRedrawChurn) {
  auto device = make();
  settle(1.0);
  const auto redraws_before = device->redraws();
  settle(2.0);  // nothing moves
  EXPECT_LE(device->redraws() - redraws_before, 3u);
}

TEST_F(DeviceFixture, TooCloseCausesAmbiguousReadings) {
  // Below ~4 cm the sensor folds back; with absolute mapping this shows
  // up as the cursor landing on some farther entry — the paper's
  // documented limitation.
  auto device = make();
  distance_cm = distance_for_index(*device, 4);
  settle();
  ASSERT_EQ(device->cursor().index(), 4u);
  distance_cm = 0.6;  // far below the peak: aliases to a farther entry
  settle();
  EXPECT_LT(device->cursor().index(), 4u);
}

TEST_F(DeviceFixture, TelemetryFramesReachHost) {
  auto device = make();
  wireless::RfLink::Config link_config;
  link_config.byte_loss_probability = 0.0;
  link_config.bit_flip_probability = 0.0;
  wireless::RfLink link(link_config, device->board().uart(), queue, sim::Rng(7));
  wireless::HostLogger logger;
  link.set_host_sink([&](std::uint8_t b) { logger.on_byte(b); });
  link.start();
  distance_cm = distance_for_index(*device, 3);
  settle(2.0);
  EXPECT_GT(logger.frames_received(), 20u);
  ASSERT_TRUE(logger.last_state().has_value());
  EXPECT_EQ(logger.last_state()->cursor_index, 3);
  EXPECT_EQ(logger.last_state()->level_size, 5);
}

TEST_F(DeviceFixture, BatteryDrainsOverTime) {
  auto device = make();
  constexpr double kCapacityMah = 550.0;  // the default Battery::Config
  const double before = device->board().battery().remaining_fraction();
  settle(60.0);
  const double after = device->board().battery().remaining_fraction();
  // ~47 mA total for a minute: ~0.78 mAh.
  EXPECT_GT((before - after) * kCapacityMah, 0.5);
  EXPECT_LT((before - after) * kCapacityMah, 1.5);
}

TEST_F(DeviceFixture, CyclesStayFarUnderBudget) {
  // The whole firmware must be light: at a 20 ms tick the per-second
  // budget is 10M cycles; the firmware should use well under 5%.
  auto device = make();
  settle(1.0);
  EXPECT_LT(device->board().mcu().cycles(), 500'000u);
  EXPECT_GT(device->board().mcu().cycles(), 1'000u);
}

TEST_F(DeviceFixture, PowerOffStopsEverything) {
  auto device = make();
  settle(0.5);
  device->power_off();
  const auto cycles = device->board().mcu().cycles();
  const auto redraws = device->redraws();
  settle(1.0);
  EXPECT_EQ(device->board().mcu().cycles(), cycles);
  EXPECT_EQ(device->redraws(), redraws);
}

// --- long-menu strategies on the device ----------------------------------------

TEST_F(DeviceFixture, ChunkedStrategyPagesWithAuxButton) {
  menu_root = menu::make_flat_menu(25);
  DistScrollDevice::Config config;
  config.long_menu = LongMenuStrategy::Chunked;
  config.chunk_size = 10;
  auto device = make(config);
  settle();
  ASSERT_TRUE(device->current_chunk().has_value());
  EXPECT_EQ(*device->current_chunk(), 0u);
  EXPECT_EQ(device->mapper().entries(), 10u);  // islands per chunk, not 25
  press(device->aux_button());
  EXPECT_EQ(*device->current_chunk(), 1u);
  // Cursor lands in the new chunk.
  EXPECT_GE(device->cursor().index(), 10u);
  press(device->aux_button());
  EXPECT_EQ(*device->current_chunk(), 2u);
  EXPECT_EQ(device->mapper().entries(), 5u);  // short last chunk
  press(device->aux_button());                 // wraps
  EXPECT_EQ(*device->current_chunk(), 0u);
}

TEST_F(DeviceFixture, ChunkedSelectionWithinChunk) {
  menu_root = menu::make_flat_menu(25);
  DistScrollDevice::Config config;
  config.long_menu = LongMenuStrategy::Chunked;
  config.chunk_size = 10;
  auto device = make(config);
  press(device->aux_button());  // chunk 1: entries 10..19
  // Near end of range = last entry of the chunk (toward-user = down).
  distance_cm = device->mapper().centre_distance(0).value;
  settle();
  EXPECT_EQ(device->cursor().index(), 19u);
}

TEST_F(DeviceFixture, FastScrollTurboInChunkedMode) {
  menu_root = menu::make_flat_menu(50);
  DistScrollDevice::Config config;
  config.long_menu = LongMenuStrategy::Chunked;
  config.chunk_size = 10;
  config.enable_fast_scroll = true;
  auto device = make(config);
  settle();
  ASSERT_EQ(*device->current_chunk(), 0u);
  distance_cm = 3.4;  // into the over-range turbo zone (just under 4 cm)
  // Chunks advance hands-free while the device is held in the turbo
  // zone (sampling the chunk index over time: it keeps paging, with
  // wraparound).
  std::set<std::size_t> chunks_seen;
  for (int i = 0; i < 16; ++i) {
    settle(0.06);
    chunks_seen.insert(*device->current_chunk());
  }
  EXPECT_GT(chunks_seen.size(), 2u);
  distance_cm = 15.0;
  settle(0.2);
  const auto chunk = *device->current_chunk();
  settle(0.5);
  EXPECT_EQ(*device->current_chunk(), chunk);  // turbo stopped
}

TEST_F(DeviceFixture, SurfaceGlitchWithMedianFilterStaysStable) {
  DistScrollDevice::Config config;
  config.scroll.smoothing = Smoothing::Median3;
  auto device = make(config);
  device->set_surface(sensors::SurfaceProfile{1.0, 0.12});  // a reflective vest
  distance_cm = distance_for_index(*device, 2);
  settle(1.0);
  // Median-3 suppresses isolated specular glitches: cursor stays put for
  // the vast majority of the time.
  int on_target = 0, total = 0;
  for (int i = 0; i < 100; ++i) {
    settle(0.05);
    ++total;
    if (device->cursor().index() == 2u) ++on_target;
  }
  EXPECT_GT(on_target, 85) << "cursor unstable under glitches: " << on_target << "/" << total;
}

TEST_F(DeviceFixture, SelectionEventsRecorded) {
  auto device = make();
  distance_cm = distance_for_index(*device, 1);
  settle();
  press(device->select_button());
  ASSERT_EQ(device->selections().size(), 1u);
  EXPECT_EQ(device->selections()[0].label, "Item 002");
  EXPECT_TRUE(device->selections()[0].is_leaf);
  EXPECT_GT(device->selections()[0].time_s, 0.0);
}

TEST_F(DeviceFixture, PhoneMenuFullNavigation) {
  menu_root = menu::make_phone_menu();
  auto device = make();
  // Navigate: Settings (index 3) -> Display (index 1) -> Contrast (1).
  for (const std::size_t want : {3u, 1u}) {
    distance_cm = distance_for_index(*device, want);
    settle(0.8);
    ASSERT_EQ(device->cursor().index(), want);
    press(device->select_button());
  }
  distance_cm = distance_for_index(*device, 1);
  settle(0.8);
  std::string activated;
  device->on_leaf_activated([&](const DistScrollDevice::SelectionEvent& e) { activated = e.label; });
  press(device->select_button());
  EXPECT_EQ(activated, "Contrast");
}

// --- default-device totals ---------------------------------------------------

/// One scripted session on the default device (phone menu, hand sweeps,
/// descents, a leaf activation, backs, the unused aux button and a dip
/// into the fold zone), with every total the firmware model accounts
/// pinned exactly: MCU cycles and memory budgets, per-consumer charge,
/// redraws, the telemetry bytes on the UART and the selections. No
/// golden trace or CSV covers cycles or charge; this test does.
TEST(DeviceTotals, DefaultSessionIsPinned) {
  auto menu_root = menu::make_phone_menu();
  sim::EventQueue queue;
  DistScrollDevice device(DistScrollDevice::Config{}, *menu_root, queue, sim::Rng(31));
  double distance_cm = 17.0;
  device.set_distance_provider([&](util::Seconds) { return util::Centimeters{distance_cm}; });

  wireless::RfLink::Config link_config;
  link_config.byte_loss_probability = 0.0;
  link_config.bit_flip_probability = 0.0;
  wireless::RfLink link(link_config, device.board().uart(), queue, sim::Rng(5));
  std::uint64_t wire_bytes = 0;
  std::uint64_t wire_fnv = 0xcbf29ce484222325ull;
  link.set_host_sink([&](std::uint8_t b) {
    ++wire_bytes;
    wire_fnv = (wire_fnv ^ b) * 0x100000001b3ull;
  });
  link.start();
  device.power_on();

  const auto settle = [&](double s) { queue.run_until(util::Seconds{queue.now().value + s}); };
  const auto aim = [&](std::size_t index) {
    const auto& mapper = device.mapper();
    distance_cm = mapper.centre_distance(mapper.entries() - 1 - index).value;
    settle(0.8);
  };
  const auto press = [&](input::Button& button) {
    button.press();
    settle(0.08);
    button.release();
    settle(0.12);
  };

  settle(1.0);
  for (const double cm : {6.0, 28.0, 12.0, 22.0}) {
    distance_cm = cm;
    settle(0.4);
  }
  aim(3);  // Settings
  press(device.select_button());
  aim(1);  // Display
  press(device.select_button());
  aim(1);  // Contrast (a leaf)
  press(device.select_button());
  press(device.aux_button());  // no chunks on the default device
  press(device.back_button());
  aim(0);
  press(device.select_button());
  distance_cm = 0.6;  // the fold zone
  settle(0.5);
  press(device.back_button());
  press(device.back_button());
  aim(2);
  settle(2.0);

  const auto& mcu = device.board().mcu();
  const auto& mah = device.board().battery().per_consumer_mah();
  EXPECT_EQ(mcu.cycles(), 433'320u);
  EXPECT_EQ(mcu.ram_used(), 448u);
  EXPECT_EQ(mcu.flash_used(), 14'336u);
  ASSERT_EQ(mah.size(), 3u);  // base-board+mcu, gp2d120, displays
  EXPECT_EQ(mah[0], 0x1.242e6bdc8055bp-5);
  EXPECT_EQ(mah[1], 0x1.91bfd44f30737p-4);
  EXPECT_EQ(mah[2], 0x1.95287a42d4164p-8);
  EXPECT_EQ(device.redraws(), 25u);
  EXPECT_EQ(wire_bytes, 2937u);
  EXPECT_EQ(wire_fnv, 0x3b9777c97ae324c3ull);
  const auto& selections = device.selections();
  ASSERT_EQ(selections.size(), 4u);
  const char* const labels[] = {"Settings", "Display", "Contrast", "Tones"};
  for (std::size_t i = 0; i < selections.size(); ++i) {
    EXPECT_EQ(selections[i].label, labels[i]) << i;
    EXPECT_EQ(selections[i].is_leaf, i == 2) << i;
  }
  EXPECT_EQ(selections[3].time_s, 0x1.b3e76c8b43c06p+2);
}

}  // namespace
}  // namespace distscroll::core
