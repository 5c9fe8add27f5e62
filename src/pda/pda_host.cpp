#include "pda/pda_host.h"

#include <algorithm>

namespace distscroll::pda {

namespace {
constexpr std::size_t kScreenLines = 10;  // PDA screens fit more than 5 lines
}  // namespace

PdaHost::PdaHost(const menu::MenuNode& menu_root) : cursor_(menu_root) {
  rebuild_mapping();
}

void PdaHost::rebuild_mapping() {
  const std::size_t entries = std::max<std::size_t>(1, cursor_.level_size());
  mapper_ = std::make_unique<core::IslandMapper>(core::SensorCurve{}, entries,
                                                 core::IslandMapper::Config{});
  controller_ = std::make_unique<core::ScrollController>(*mapper_, core::ScrollController::Config{});
}

void PdaHost::on_byte(std::uint8_t byte) {
  const auto dispatch = [this](const wireless::FrameView& frame) {
    if (frame.type == kDistanceFrame && frame.payload.size() == 2) {
      handle_distance(static_cast<std::uint16_t>(frame.payload[0] | (frame.payload[1] << 8)));
    } else if (frame.type == kButtonFrame && frame.payload.size() == 2) {
      handle_button(frame.payload[0], frame.payload[1] != 0);
    }
  };
  decoder_.feed(byte, dispatch);
}

void PdaHost::handle_distance(std::uint16_t counts) {
  const auto update = controller_->on_sample(util::AdcCounts{counts});
  if (update.menu_index) {
    cursor_.move_to(*update.menu_index);
  }
}

void PdaHost::handle_button(std::uint8_t button, bool pressed) {
  if (!pressed) return;  // act on press edges
  if (button == 0) {
    // Select.
    const menu::MenuNode& target = cursor_.highlighted();
    selections_.push_back({target.label(), target.is_leaf()});
    if (cursor_.enter()) rebuild_mapping();
  } else if (button == 1) {
    if (cursor_.back()) rebuild_mapping();
  }
}

void PdaHost::request_report_divider(std::uint8_t divider) {
  if (!addon_sink_) return;
  const std::uint8_t payload[] = {divider};
  std::array<std::uint8_t, wireless::kMaxEncodedFrame> wire{};
  const std::size_t len = wireless::encode_into(kRateCommand, command_seq_++, payload, wire);
  for (std::size_t i = 0; i < len; ++i) addon_sink_(wire[i]);
}

std::vector<std::string> PdaHost::screen() const {
  const menu::MenuNode& level = cursor_.current_level();
  const std::size_t size = level.child_count();
  const std::size_t window_start = cursor_.window_start(kScreenLines);
  std::vector<std::string> out;
  for (std::size_t row = 0; row < kScreenLines; ++row) {
    const std::size_t entry = window_start + row;
    if (entry >= size) break;
    out.push_back((entry == cursor_.index() ? "> " : "  ") + level.child(entry).label());
  }
  return out;
}

}  // namespace distscroll::pda
