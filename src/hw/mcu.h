// PIC 18F452-like microcontroller model.
//
// The paper stresses that DistScroll's input parameter "can be directly
// derived from the sensor without the need of heavy input processing"
// (Section 2) — a claim about MCU cycles. We model the budget side:
// a cycle counter at 10 MIPS (40 MHz Fosc / 4), flash (32 KiB) and RAM
// (1536 B) budgets that firmware structures register against, and
// periodic timer interrupts scheduled on the shared event queue.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/event_queue.h"
#include "util/units.h"

namespace distscroll::hw {

class Mcu {
 public:
  explicit Mcu(sim::EventQueue& queue) : queue_(&queue) {}

  // --- cycle accounting -------------------------------------------------
  /// Firmware charges instruction cycles for work it performs; used by
  /// the "no heavy processing" micro-benchmark.
  void charge_cycles(std::uint64_t cycles) { cycles_ += cycles; }
  [[nodiscard]] std::uint64_t cycles() const { return cycles_; }

  // --- memory budgets ----------------------------------------------------
  /// Register a static RAM allocation (firmware tables, FIFOs). Asserts
  /// the budget is not exceeded — the 1.5 KiB constraint is real.
  void reserve_ram(std::string what, std::size_t bytes);
  void reserve_flash(std::string what, std::size_t bytes);
  [[nodiscard]] std::size_t ram_used() const { return ram_used_; }
  [[nodiscard]] std::size_t flash_used() const { return flash_used_; }

  // --- timers -------------------------------------------------------------
  /// Start a periodic timer interrupt. The handler runs on the event
  /// queue every `period`. Returns a timer id; stop with stop_timer.
  // ds-lint: allow(no-std-function-hot-path) owning boundary: the timer outlives its registrant's frame
  std::size_t start_timer(util::Seconds period, std::function<void()> handler);
  void stop_timer(std::size_t timer);

  [[nodiscard]] sim::EventQueue& queue() { return *queue_; }
  [[nodiscard]] util::Seconds now() const { return queue_->now(); }

 private:
  void arm(std::size_t timer);

  sim::EventQueue* queue_;
  std::uint64_t cycles_ = 0;
  std::size_t ram_used_ = 0;
  std::size_t flash_used_ = 0;
  struct Allocation {
    std::string what;
    std::size_t bytes;
  };
  std::vector<Allocation> ram_allocations_;
  std::vector<Allocation> flash_allocations_;
  struct Timer {
    util::Seconds period{0.0};
    // ds-lint: allow(no-std-function-hot-path) owning slot; per-tick dispatch is one erased call, no alloc
    std::function<void()> handler;
    bool active = false;
  };
  std::vector<Timer> timers_;
};

}  // namespace distscroll::hw
