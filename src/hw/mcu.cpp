#include "hw/mcu.h"

namespace distscroll::hw {

namespace {
constexpr std::size_t kFlashBytes = 32 * 1024;
constexpr std::size_t kRamBytes = 1536;
}  // namespace

void Mcu::reserve_ram(std::size_t bytes) {
  assert(ram_used_ + bytes <= kRamBytes && "PIC 18F452 RAM budget (1536 B) exceeded");
  ram_used_ += bytes;
}

void Mcu::reserve_flash(std::size_t bytes) {
  assert(flash_used_ + bytes <= kFlashBytes && "PIC 18F452 flash budget (32 KiB) exceeded");
  flash_used_ += bytes;
}

std::size_t Mcu::start_timer(util::Seconds period, std::function<void()> handler) {
  assert(period.value > 0.0 && handler);
  timers_.push_back({period, std::move(handler), true});
  const std::size_t id = timers_.size() - 1;
  arm(id);
  return id;
}

void Mcu::stop_timer(std::size_t timer) {
  assert(timer < timers_.size());
  timers_[timer].active = false;
}

void Mcu::arm(std::size_t timer) {
  queue_->schedule_after(timers_[timer].period, [this, timer] {
    Timer& t = timers_[timer];
    if (!t.active) return;
    t.handler();
    if (t.active) arm(timer);
  });
}

}  // namespace distscroll::hw
