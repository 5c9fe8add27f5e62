// Firmware-side button debouncer.
//
// Classic counter debouncer as the PIC firmware would run it from a 1 ms
// timer tick: a level change must persist for `stable_ticks` consecutive
// samples before it is accepted. Emits press/release events via
// callbacks.
#pragma once

#include "hw/gpio.h"
#include "util/function_ref.h"

namespace distscroll::input {

class Debouncer {
 public:
  struct Config {
    /// 8 ms at a 1 kHz tick: > max bounce window. A test seam: the
    /// debounce property test sweeps it.
    int stable_ticks = 8;
  };

  /// Non-owning delegate: the debouncer ticks at 1 kHz and its callbacks
  /// are wiring into a long-lived owner (the device), so edges dispatch
  /// through a two-pointer call instead of a heap-backed std::function.
  /// The owner keeps the callable (or context object) alive.
  using Callback = util::FunctionRef<void()>;

  Debouncer() : Debouncer(Config{}) {}
  explicit Debouncer(Config config) : config_(config) {}

  void on_press(Callback cb) { on_press_ = std::move(cb); }
  void on_release(Callback cb) { on_release_ = std::move(cb); }

  /// Debounced state (active-low wiring: Low = pressed).
  [[nodiscard]] bool pressed() const { return stable_level_ == hw::PinLevel::Low; }

  /// Feed one raw sample per firmware tick.
  void tick(hw::PinLevel raw) {
    if (raw == stable_level_) {
      counter_ = 0;
      return;
    }
    if (++counter_ < config_.stable_ticks) return;
    stable_level_ = raw;
    counter_ = 0;
    if (stable_level_ == hw::PinLevel::Low) {
      if (on_press_) on_press_();
    } else {
      if (on_release_) on_release_();
    }
  }

 private:
  Config config_;
  hw::PinLevel stable_level_ = hw::PinLevel::High;
  int counter_ = 0;
  Callback on_press_;
  Callback on_release_;
};

}  // namespace distscroll::input
