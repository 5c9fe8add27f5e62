#include "input/button.h"

namespace distscroll::input {

namespace {
// Contacts settle within this window after each transition, with up to
// this many spurious edges.
constexpr double kMaxBounceDurationS = 4e-3;
constexpr int kMaxBounceEdges = 6;
}  // namespace

void Button::press() {
  if (pressed_) return;
  pressed_ = true;
  emit_bounce(hw::PinLevel::Low);
}

void Button::release() {
  if (!pressed_) return;
  pressed_ = false;
  emit_bounce(hw::PinLevel::High);
}

void Button::emit_bounce(hw::PinLevel final_level) {
  const std::uint64_t gen = ++generation_;
  const int edges = rng_.uniform_int(0, kMaxBounceEdges);
  const double window = kMaxBounceDurationS;
  // Emit `edges` alternating spurious transitions inside the bounce
  // window, then the settled level at the end. Work backwards so the
  // last edge is always final_level.
  for (int i = edges; i >= 1; --i) {
    const double at = window * static_cast<double>(i) / static_cast<double>(edges + 1);
    const hw::PinLevel spurious =
        ((edges - i) % 2 == 0) ? (final_level == hw::PinLevel::Low ? hw::PinLevel::High
                                                                    : hw::PinLevel::Low)
                                : final_level;
    queue_->schedule_after(util::Seconds{window - at}, [this, gen, spurious] {
      if (gen != generation_) return;  // a newer press/release supersedes
      gpio_->drive_external(pin_, spurious);
    });
  }
  // Immediate first contact, settled level after the window.
  gpio_->drive_external(pin_, final_level);
  queue_->schedule_after(util::Seconds{window}, [this, gen, final_level] {
    if (gen != generation_) return;
    gpio_->drive_external(pin_, final_level);
  });
}

}  // namespace distscroll::input
