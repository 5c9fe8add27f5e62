// Cooperative firmware task scheduler.
//
// The Smart-Its firmware is a classic super-loop with a timer tick:
// tasks declare a period and a worst-case cycle cost; the scheduler runs
// due tasks each tick, charges their cycles to the MCU, and detects
// ticks whose total work exceeds the tick's cycle budget (overruns —
// the thing that makes a PIC miss its sampling deadline). Jitter and
// utilisation statistics make the firmware's timing envelope visible.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "hw/mcu.h"
#include "obs/tracer.h"
#include "util/units.h"

namespace distscroll::hw {

class Scheduler {
 public:
  struct Config {
    util::Seconds tick{1e-3};
  };

  Scheduler(Config config, Mcu& mcu) : config_(config), mcu_(&mcu) {
    budget_cycles_ = static_cast<std::uint64_t>(config_.tick.value * 10e6);  // at 10 MIPS
  }

  /// Register a periodic task. `period_ticks` >= 1; `cycles` is the
  /// task's worst-case execution cost charged per run.
  std::size_t add_task(std::string name, int period_ticks, std::uint64_t cycles,
                       // ds-lint: allow(no-std-function-hot-path) registration is setup-time
                       std::function<void()> body) {
    assert(period_ticks >= 1 && body);
    tasks_.push_back({std::move(name), period_ticks, cycles, std::move(body), 0, 0});
    return tasks_.size() - 1;
  }

  // ds-lint: allow(test-only-api) a test pins that tick() skips a disabled task
  void set_enabled(std::size_t task, bool enabled) {
    assert(task < tasks_.size());
    tasks_[task].enabled = enabled ? 1 : 0;
  }

  /// Start ticking on the MCU timer.
  void start() {
    if (running_) return;
    running_ = true;
    timer_ = mcu_->start_timer(config_.tick, [this] { tick(); });
  }

  void stop() {
    if (!running_) return;
    running_ = false;
    mcu_->stop_timer(timer_);
  }

  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }
  [[nodiscard]] std::uint64_t overruns() const { return overruns_; }
  [[nodiscard]] std::uint64_t runs(std::size_t task) const { return tasks_[task].runs; }

  /// Structured tracing of budget overruns (TickOverrun: a = cycles
  /// spent, b = tick budget). Null detaches.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Mean fraction of the tick budget used.
  [[nodiscard]] double utilization() const {
    if (ticks_ == 0) return 0.0;
    return static_cast<double>(used_cycles_) /
           (static_cast<double>(ticks_) * static_cast<double>(budget_cycles_));
  }

 private:
  struct Task {
    std::string name;
    int period_ticks;
    std::uint64_t cycles;
    // ds-lint: allow(no-std-function-hot-path) owning slot filled at add_task; dispatch never rebinds
    std::function<void()> body;
    std::uint64_t runs;
    int phase;  // stagger start; counts up to period
    int enabled = 1;
  };

  void tick() {
    ++ticks_;
    std::uint64_t spent = 0;
    for (auto& task : tasks_) {
      if (!task.enabled) continue;
      if (++task.phase < task.period_ticks) continue;
      task.phase = 0;
      task.body();
      mcu_->charge_cycles(task.cycles);
      spent += task.cycles;
      ++task.runs;
    }
    used_cycles_ += spent;
    if (spent > budget_cycles_) {
      ++overruns_;
      DS_TRACE(tracer_, obs::EventKind::TickOverrun, static_cast<std::uint32_t>(spent),
               static_cast<std::uint32_t>(budget_cycles_));
    }
  }

  Config config_;
  Mcu* mcu_;
  obs::Tracer* tracer_ = nullptr;
  std::vector<Task> tasks_;
  std::uint64_t budget_cycles_;
  std::size_t timer_ = 0;
  bool running_ = false;
  std::uint64_t ticks_ = 0;
  std::uint64_t overruns_ = 0;
  std::uint64_t used_cycles_ = 0;
};

}  // namespace distscroll::hw
