#include "pda/pda_addon.h"

#include <algorithm>

#include "core/scroll_controller.h"

namespace distscroll::pda {

namespace {
using core::kFirmwareTick;
}  // namespace

PdaAddon::PdaAddon(sim::EventQueue& queue, sim::Rng rng)
    : queue_(&queue),
      board_({}, queue, rng.fork(1)),
      ranger_({}, rng.fork(2)),
      buttons_(board_.gpio(), queue, {rng.fork(3), rng.fork(4)}) {
  distance_provider_ = [](util::Seconds) { return util::Centimeters{17.0}; };
  ranger_channel_ = board_.adc().attach(hw::AnalogSource(this, [](void* ctx, util::Seconds now) {
    auto* self = static_cast<PdaAddon*>(ctx);
    return self->ranger_.output(self->distance_provider_(now), now);
  }));

  board_.battery().add_consumer("gp2d120", sensors::Gp2d120Model::kSupplyMa);
  board_.mcu().reserve_ram(64);
  board_.mcu().reserve_flash(4 * 1024);  // the dumb firmware is tiny
}

void PdaAddon::power_on() {
  if (powered_) return;
  powered_ = true;
  board_.mcu().start_timer(kFirmwareTick, [this] { firmware_tick(); });
  board_.mcu().start_timer(input::ButtonPanel::kScanPeriod, [this] { button_tick(); });
}

void PdaAddon::firmware_tick() {
  const auto counts = board_.adc().sample(ranger_channel_, queue_->now());
  board_.mcu().charge_cycles(hw::Adc10::kConversionCycles);
  if (++ticks_since_report_ >= report_divider_) {
    ticks_since_report_ = 0;
    send_frame(kDistanceFrame, {static_cast<std::uint8_t>(counts.value & 0xFF),
                                static_cast<std::uint8_t>(counts.value >> 8)});
  }
  board_.battery().consume(kFirmwareTick);
}

void PdaAddon::button_tick() {
  buttons_.scan([this](std::size_t pin, bool pressed) {
    send_frame(kButtonFrame, {static_cast<std::uint8_t>(pin), static_cast<std::uint8_t>(pressed)});
  });
  board_.mcu().charge_cycles(10);
}

void PdaAddon::send_frame(wireless::FrameType type, std::array<std::uint8_t, 2> payload) {
  std::array<std::uint8_t, wireless::kMaxEncodedFrame> wire{};
  const std::size_t len = wireless::encode_into(type, seq_++, payload, wire);
  for (std::size_t i = 0; i < len; ++i) board_.uart().transmit(wire[i]);
  ++frames_sent_;
  board_.mcu().charge_cycles(90);
}

void PdaAddon::on_host_byte(std::uint8_t byte) {
  const auto on_command = [this](const wireless::FrameView& frame) {
    if (frame.type == kRateCommand && !frame.payload.empty()) {
      report_divider_ = std::max<int>(1, frame.payload[0]);
    }
  };
  host_decoder_.feed(byte, on_command);
}

}  // namespace distscroll::pda
