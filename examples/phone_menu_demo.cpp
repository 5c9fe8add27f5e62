// The paper's initial-study setup (Section 6): the fictive mobile phone
// menu on the upper display, debug info on the lower one, telemetry
// streaming to a logging PC over the wireless link.
//
// A scripted hand navigates Messages -> Inbox, then Settings -> Display
// -> Contrast, exactly as a study participant would, and the example
// prints what both displays show at each step plus the host-side log.
#include <cstdio>

#include "core/distscroll_device.h"
#include "menu/phone_menu.h"
#include "wireless/host_logger.h"
#include "wireless/rf_link.h"

using namespace distscroll;

namespace {

void print_displays(const core::DistScrollDevice& device) {
  std::printf("  upper display (menu)        lower display (debug)\n");
  for (int line = 0; line < display::kTextLines; ++line) {
    const bool inv = device.top_display().line_inverted(line);
    std::printf("  %c%-16s%c           %-16s\n", inv ? '[' : ' ',
                device.top_display().line_text(line).c_str(), inv ? ']' : ' ',
                device.bottom_display().line_text(line).c_str());
  }
  std::printf("\n");
}

}  // namespace

int main() {
  auto menu_root = menu::make_phone_menu();
  sim::EventQueue queue;
  core::DistScrollDevice::Config config;
  core::DistScrollDevice device(config, *menu_root, queue, sim::Rng(2005));

  double hand_cm = 17.0;
  device.set_distance_provider([&](util::Seconds) { return util::Centimeters{hand_cm}; });

  // The logging PC behind the wireless link.
  wireless::RfLink link({}, device.board().uart(), queue, sim::Rng(1));
  wireless::HostLogger logger;
  link.set_host_sink([&](std::uint8_t b) { logger.on_byte(b); });
  link.start();

  device.power_on();
  device.on_leaf_activated([&](const core::DistScrollDevice::SelectionEvent& e) {
    std::printf(">>> leaf activated: \"%s\" at t=%.2fs\n\n", e.label.c_str(), e.time_s);
  });

  auto settle = [&](double s) { queue.run_until(util::Seconds{queue.now().value + s}); };
  auto move_to_index = [&](std::size_t index) {
    // The hand aims at the island centre for `index` (toward-user =
    // down mapping: island = entries-1-index).
    const auto& mapper = device.mapper();
    hand_cm = mapper.centre_distance(mapper.entries() - 1 - index).value;
    settle(0.6);
  };
  auto click = [&](input::Button& b) {
    b.press();
    settle(0.15);
    b.release();
    settle(0.1);
  };

  std::printf("=== DistScroll phone-menu walkthrough ===\n\n");
  std::printf("-- start: root level --\n");
  settle(0.5);
  print_displays(device);

  std::printf("-- scroll to \"Messages\" (move the device away) and select --\n");
  move_to_index(0);
  print_displays(device);
  click(device.select_button());

  std::printf("-- inside Messages: scroll to \"Inbox\" --\n");
  move_to_index(1);
  print_displays(device);
  click(device.select_button());  // leaf: activates Inbox

  std::printf("-- back to root, then Settings > Display > Contrast --\n");
  click(device.back_button());
  move_to_index(3);  // Settings
  click(device.select_button());
  move_to_index(1);  // Display
  click(device.select_button());
  move_to_index(1);  // Contrast
  print_displays(device);
  click(device.select_button());

  std::printf("=== host-side study log ===\n");
  std::printf("frames received: %llu (crc rejects: %llu, gaps: %llu)\n",
              static_cast<unsigned long long>(logger.frames_received()),
              static_cast<unsigned long long>(logger.crc_errors()),
              static_cast<unsigned long long>(logger.sequence_gaps()));
  if (logger.last_state()) {
    std::printf("last state frame: depth=%u cursor=%u/%u adc=%u\n",
                logger.last_state()->menu_depth, logger.last_state()->cursor_index,
                logger.last_state()->level_size, logger.last_state()->adc_counts);
  }
  std::printf("device selections logged: %zu, firmware cycles: %llu\n",
              device.selections().size(),
              static_cast<unsigned long long>(device.board().mcu().cycles()));
  return 0;
}
