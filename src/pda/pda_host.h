// PDA-side consumer of the add-on stream.
//
// Owns everything the dumb dongle does not: the calibrated sensor
// curve, the island mapping, the scroll controller, the menu, and a
// text screen (a 2005-era PDA: more lines than the prototype's COG
// panels). Rebuilds islands per menu level exactly like the standalone
// firmware, so behaviour is identical from the user's point of view —
// which is the point of the paper's planned re-implementation.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/island_mapper.h"
#include "core/scroll_controller.h"
#include "menu/menu.h"
#include "pda/pda_addon.h"
#include "wireless/packet.h"

namespace distscroll::pda {

class PdaHost {
 public:
  /// The host runs the firmware's default curve, islands and controller.
  explicit PdaHost(const menu::MenuNode& menu_root);

  /// Byte sink for the addon -> host serial direction.
  void on_byte(std::uint8_t byte);

  /// Optional back-channel to the add-on (rate commands).
  void set_addon_sink(std::function<void(std::uint8_t)> sink) { addon_sink_ = std::move(sink); }
  /// Ask the add-on to report every `divider` ticks.
  void request_report_divider(std::uint8_t divider);

  [[nodiscard]] const menu::MenuCursor& cursor() const { return cursor_; }
  [[nodiscard]] const core::IslandMapper& mapper() const { return *mapper_; }

  struct Selection {
    std::string label;
    bool is_leaf;
  };
  // ds-lint: allow(test-only-api) the tests read which entries the host selected; the demo shows only the screen
  [[nodiscard]] const std::vector<Selection>& selections() const { return selections_; }

  /// The rendered screen: menu window with '>' cursor marker.
  [[nodiscard]] std::vector<std::string> screen() const;

  // Link statistics.
  // ds-lint: allow(test-only-api) the tests count the frames that cross the link; the demo prints no link counts
  [[nodiscard]] std::uint64_t frames_received() const { return decoder_.frames_decoded(); }
  [[nodiscard]] std::uint64_t crc_errors() const { return decoder_.crc_errors(); }

 private:
  void rebuild_mapping();
  void handle_distance(std::uint16_t counts);
  void handle_button(std::uint8_t button, bool pressed);

  menu::MenuCursor cursor_;
  std::unique_ptr<core::IslandMapper> mapper_;
  std::unique_ptr<core::ScrollController> controller_;
  wireless::FrameDecoder decoder_;
  std::function<void(std::uint8_t)> addon_sink_;
  std::vector<Selection> selections_;
  std::uint8_t command_seq_ = 0;
};

}  // namespace distscroll::pda
