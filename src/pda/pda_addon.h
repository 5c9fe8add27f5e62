// The minimized DistScroll as a PDA add-on (paper Section 7: "we also
// intend to construct a minimized version of the DistScroll as add-on
// for a PDA", and Section 5.2: "a DistScroll add-on for mobile devices
// using the power connector").
//
// The add-on is deliberately dumb: a GP2D120, one select button, a PIC
// and the connector. It streams raw ADC counts and button events over
// the serial link; the PDA host (pda::PdaHost) owns the menu, the
// calibrated curve, the island mapping and the screen. This splits the
// paper's firmware at the natural seam — sensing on the dongle,
// interpretation on the device with the display.
#pragma once

#include <array>
#include <functional>

#include "hw/smart_its.h"
#include "input/button_panel.h"
#include "sensors/gp2d120.h"
#include "wireless/packet.h"

namespace distscroll::pda {

/// Frame types the add-on protocol adds on top of wireless::FrameType,
/// from the 0x10..0x1F extension range the decoder accepts alongside
/// the core 0x01..0x06 (wireless::is_known_frame_type).
inline constexpr auto kDistanceFrame = static_cast<wireless::FrameType>(0x10);
inline constexpr auto kButtonFrame = static_cast<wireless::FrameType>(0x11);
inline constexpr auto kRateCommand = static_cast<wireless::FrameType>(0x12);

class PdaAddon {
 public:
  PdaAddon(sim::EventQueue& queue, sim::Rng rng);

  void set_distance_provider(std::function<util::Centimeters(util::Seconds)> provider) {
    distance_provider_ = std::move(provider);
  }

  void power_on();

  /// The single physical button (select; the host may interpret long
  /// presses as back).
  input::Button& select_button() { return buttons_.button(0); }
  // ds-lint: allow(test-only-api) the tests drive the host's back handling with it; the demo presses only select
  input::Button& back_button() { return buttons_.button(1); }

  /// The serial connector to the PDA.
  [[nodiscard]] hw::Uart& uart() { return board_.uart(); }
  [[nodiscard]] hw::SmartIts& board() { return board_; }

  /// Feed host -> addon bytes (rate commands).
  void on_host_byte(std::uint8_t byte);

  [[nodiscard]] std::uint64_t frames_sent() const { return frames_sent_; }

 private:
  void firmware_tick();
  void button_tick();
  /// Every add-on frame carries two bytes: (lo, hi) counts or
  /// (button, pressed).
  void send_frame(wireless::FrameType type, std::array<std::uint8_t, 2> payload);

  sim::EventQueue* queue_;
  hw::SmartIts board_;
  sensors::Gp2d120Model ranger_;
  input::ButtonPanel buttons_;
  std::function<util::Centimeters(util::Seconds)> distance_provider_;
  wireless::FrameDecoder host_decoder_;

  std::size_t ranger_channel_ = 0;
  bool powered_ = false;
  /// Distance frame every N ticks (host-adjustable via kRateCommand).
  int report_divider_ = 2;
  int ticks_since_report_ = 0;
  std::uint8_t seq_ = 0;
  std::uint64_t frames_sent_ = 0;
};

}  // namespace distscroll::pda
