// The paper's planned productisation (Section 7): the DistScroll as a
// dumb PDA add-on. The dongle streams raw distance counts and button
// events over the serial connector; the PDA owns the menu, the island
// mapping and a 10-line screen.
//
// The demo scrolls the phone menu through the add-on, throttles the
// report rate from the host side, and shows the PDA screen.
#include <cstdio>

#include "menu/phone_menu.h"
#include "pda/pda_addon.h"
#include "pda/pda_host.h"

using namespace distscroll;

int main() {
  auto menu_root = menu::make_phone_menu();
  sim::EventQueue queue;

  pda::PdaAddon addon(queue, sim::Rng(99));
  pda::PdaHost host(*menu_root);

  // The serial cable: clock addon bytes into the host at UART pace.
  std::function<void()> drain = [&] {
    if (auto byte = addon.uart().clock_out()) host.on_byte(*byte);
    queue.schedule_after(addon.uart().byte_time(), drain);
  };
  queue.schedule_after(addon.uart().byte_time(), drain);
  host.set_addon_sink([&](std::uint8_t byte) { addon.on_host_byte(byte); });

  double hand_cm = 17.0;
  addon.set_distance_provider([&](util::Seconds) { return util::Centimeters{hand_cm}; });
  addon.power_on();

  auto settle = [&](double s) { queue.run_until(util::Seconds{queue.now().value + s}); };
  auto show_screen = [&] {
    std::printf("  +----------------------+\n");
    for (const auto& line : host.screen()) std::printf("  | %-20s |\n", line.c_str());
    std::printf("  +----------------------+\n\n");
  };

  std::printf("=== DistScroll PDA add-on demo ===\n\n");
  settle(0.5);
  std::printf("PDA screen at 17 cm:\n");
  show_screen();

  // Scroll to "Organiser" (index 4) and open it.
  const auto& mapper = host.mapper();
  hand_cm = mapper.centre_distance(mapper.entries() - 1 - 4).value;
  settle(0.6);
  std::printf("moved the add-on to %.1f cm -> \"%s\":\n", hand_cm,
              host.cursor().highlighted().label().c_str());
  show_screen();

  addon.select_button().press();
  settle(0.1);
  addon.select_button().release();
  settle(0.1);
  std::printf("select pressed -> inside \"%s\" (islands rebuilt for %zu entries):\n",
              "Organiser", host.mapper().entries());
  show_screen();

  // Host throttles the dongle to save dongle battery.
  const auto before = addon.frames_sent();
  host.request_report_divider(10);
  settle(1.0);
  std::printf("after host throttle command: %llu frames in 1 s (was ~25/s)\n",
              static_cast<unsigned long long>(addon.frames_sent() - before));
  std::printf("dongle firmware footprint: %zu B flash, %zu B RAM (standalone: ~14 KiB)\n",
              addon.board().mcu().flash_used(), addon.board().mcu().ram_used());
  return 0;
}
