// Discrete-event scheduler.
//
// A binary-heap calendar: callbacks scheduled at absolute simulated
// times, dispatched by the SimClock (time, arm order) rule so same-time
// events are deterministic. Handles support cancellation (e.g. a button
// release cancelling a pending auto-repeat).
//
// Storage is two flat vectors — the (time, arm order) min-heap and a
// recycled slot table holding the callbacks — so steady-state scheduling
// does no per-event node allocation (unlike the std::map calendar this
// replaced).
// cancel() is O(1): it bumps the slot's generation and the stale heap
// entry is discarded lazily when it reaches the top (wireless::
// EventArqSender cancels its one wake event this way whenever its ARQ
// sender's earliest retransmit deadline moves).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/clock.h"
#include "util/hot_path.h"
#include "util/units.h"

namespace distscroll::sim {

class EventQueue {
 public:
  using Callback = std::function<void()>;
  using Handle = std::uint64_t;
  static constexpr Handle kInvalidHandle = 0;

  [[nodiscard]] util::Seconds now() const { return clock_.now(); }

  /// Schedule `cb` at absolute simulated time `when`. Scheduling in the
  /// past clamps to now (the event fires next).
  // Steady-state allocation-free: the heap and slot table grow only
  // while the calendar is deeper than it has ever been; a queue at its
  // working depth recycles capacity. Pinned by the AllocGuard
  // schedule/dispatch test.
  DS_HOT_BEGIN
  Handle schedule_at(util::Seconds when, Callback cb) {
    if (when < clock_.now()) when = clock_.now();
    const std::uint32_t slot = acquire_slot(std::move(cb));
    // ds-lint: allow(no-alloc-markers) amortised growth: no-op at recycled capacity
    heap_.push_back(HeapEntry{when.value, clock_.arm(), slot, slots_[slot].generation});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    ++live_;
    return make_handle(slot, slots_[slot].generation);
  }

  Handle schedule_after(util::Seconds delay, Callback cb) {
    return schedule_at(clock_.now() + delay, std::move(cb));
  }

  /// Cancel a pending event; returns false if it already ran or was
  /// cancelled. O(1): the heap entry goes stale and is skipped lazily.
  bool cancel(Handle h) {
    const std::uint32_t slot = handle_slot(h);
    if (slot >= slots_.size() || slots_[slot].generation != handle_generation(h)) return false;
    release_slot(slot);
    --live_;
    return true;
  }

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t pending() const { return live_; }

  /// Dispatch the next event; returns false when the queue is empty.
  bool step() {
    prune();
    if (heap_.empty()) return false;
    const HeapEntry top = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    clock_.advance_to(util::Seconds{top.time});
    Callback cb = std::move(slots_[top.slot].callback);
    release_slot(top.slot);
    --live_;
    cb();
    return true;
  }

  /// Run until the queue drains or simulated time exceeds `until`.
  /// Returns the number of events dispatched.
  std::size_t run_until(util::Seconds until) {
    std::size_t dispatched = 0;
    for (;;) {
      prune();
      if (heap_.empty() || heap_.front().time > until.value) break;
      step();
      ++dispatched;
    }
    // Even if nothing is pending, the caller observed time `until`.
    if (clock_.now() < until) clock_.advance_to(until);
    return dispatched;
  }

  /// Run to exhaustion with a safety cap. Hitting the cap with work
  /// still pending is surfaced via truncated() — a runaway sim must not
  /// masquerade as a clean finish.
  std::size_t run_all(std::size_t max_events = 10'000'000) {
    truncated_ = false;
    std::size_t dispatched = 0;
    while (dispatched < max_events && step()) ++dispatched;
    truncated_ = !empty();
    return dispatched;
  }

  /// True when the last run_all() stopped at its event cap with events
  /// still pending (i.e. the simulation did not actually finish).
  // ds-lint: allow(test-only-api) the run_all cap tests read it; no program runs an unbounded queue
  [[nodiscard]] bool truncated() const { return truncated_; }

 private:
  struct HeapEntry {
    double time;
    std::uint64_t order;  // arm order; same-time tiebreaker
    std::uint32_t slot;
    std::uint32_t generation;  // stale-entry guard (lazy cancellation)
  };
  // Min-heap on (time, order) via std:: max-heap algorithms.
  struct Later {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.order > b.order;
    }
  };
  struct Slot {
    Callback callback;
    std::uint32_t generation = 1;
  };

  static Handle make_handle(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<Handle>(slot) + 1) << 32 | generation;
  }
  static std::uint32_t handle_slot(Handle h) {
    return static_cast<std::uint32_t>(h >> 32) - 1;
  }
  static std::uint32_t handle_generation(Handle h) {
    return static_cast<std::uint32_t>(h);
  }

  std::uint32_t acquire_slot(Callback cb) {
    if (!free_slots_.empty()) {
      const std::uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      slots_[slot].callback = std::move(cb);
      return slot;
    }
    // ds-lint: allow(no-alloc-markers) cold path: only when deeper than ever before
    slots_.push_back(Slot{std::move(cb), 1});
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  /// Invalidate the slot's outstanding handle/heap entry and recycle it.
  void release_slot(std::uint32_t slot) {
    slots_[slot].callback = nullptr;
    ++slots_[slot].generation;
    // ds-lint: allow(no-alloc-markers) free list never outgrows the slot table
    free_slots_.push_back(slot);
  }

  /// Drop stale (cancelled) entries off the top of the heap.
  void prune() {
    while (!heap_.empty() &&
           slots_[heap_.front().slot].generation != heap_.front().generation) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
    }
  }
  DS_HOT_END

  SimClock clock_;
  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_ = 0;
  bool truncated_ = false;
};

}  // namespace distscroll::sim
