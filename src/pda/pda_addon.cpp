#include "pda/pda_addon.h"

#include <algorithm>

#include "core/scroll_controller.h"

namespace distscroll::pda {

namespace {
using core::kFirmwareTick;
constexpr util::Seconds kButtonTick{1e-3};
}  // namespace

PdaAddon::PdaAddon(sim::EventQueue& queue, sim::Rng rng)
    : queue_(&queue), board_({}, queue, rng.fork(1)), ranger_({}, rng.fork(2)) {
  distance_provider_ = [](util::Seconds) { return util::Centimeters{17.0}; };
  ranger_channel_ = board_.adc().attach(hw::AnalogSource(this, [](void* ctx, util::Seconds now) {
    auto* self = static_cast<PdaAddon*>(ctx);
    return self->ranger_.output(self->distance_provider_(now), now);
  }));

  select_ = std::make_unique<input::Button>(board_.gpio(), 0, queue, rng.fork(3));
  back_ = std::make_unique<input::Button>(board_.gpio(), 1, queue, rng.fork(4));
  debouncers_.resize(2);
  for (std::size_t i = 0; i < 2; ++i) {
    button_ctx_[i] = ButtonCtx{this, static_cast<std::uint8_t>(i)};
    debouncers_[i].on_press(input::Debouncer::Callback(&button_ctx_[i], [](void* ctx) {
      auto* c = static_cast<ButtonCtx*>(ctx);
      c->addon->send_frame(kButtonFrame, {c->index, 1});
    }));
    debouncers_[i].on_release(input::Debouncer::Callback(&button_ctx_[i], [](void* ctx) {
      auto* c = static_cast<ButtonCtx*>(ctx);
      c->addon->send_frame(kButtonFrame, {c->index, 0});
    }));
  }

  board_.battery().add_consumer("gp2d120", 33.0);
  board_.mcu().reserve_ram("addon-state", 64);
  board_.mcu().reserve_flash("addon-firmware", 4 * 1024);  // the dumb firmware is tiny
}

void PdaAddon::power_on() {
  if (powered_) return;
  powered_ = true;
  board_.mcu().start_timer(kFirmwareTick, [this] { firmware_tick(); });
  board_.mcu().start_timer(kButtonTick, [this] { button_tick(); });
}

void PdaAddon::firmware_tick() {
  const auto counts = board_.adc().sample(ranger_channel_, queue_->now());
  board_.mcu().charge_cycles(440);
  if (++ticks_since_report_ >= report_divider_) {
    ticks_since_report_ = 0;
    send_frame(kDistanceFrame, {static_cast<std::uint8_t>(counts.value & 0xFF),
                                static_cast<std::uint8_t>(counts.value >> 8)});
  }
  board_.battery().consume(kFirmwareTick);
}

void PdaAddon::button_tick() {
  for (std::size_t i = 0; i < debouncers_.size(); ++i) {
    debouncers_[i].tick(board_.gpio().read(i));
  }
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
