// Deterministic structured tracer: a flight recorder for the simulator.
//
// A fixed-capacity ring of TraceEvent records, pre-allocated at
// construction — the hot paths (firmware tick, controller sample)
// never allocate to trace. When the ring fills, the oldest events are
// overwritten and counted in dropped(); a capture that must be complete
// (the golden session) sizes the ring up front and asserts dropped()==0.
//
// Off-switches, both required by the determinism contract (tracing on
// vs off must not perturb behaviour — pinned by tests/parallel_test.cpp):
//  * compile time: configure with -DDISTSCROLL_TRACING=OFF and
//    DS_TRACE() compiles to nothing — record() is never emitted;
//  * runtime: the category mask the tracer is built with turns
//    individual streams off behind one predictable branch; a component
//    with no tracer attached records nothing.
//
// Timestamps come from a bound sim::EventQueue clock when available
// (components that already live on the queue don't thread `now` through
// every call), or from record_at() when the caller knows better; record()
// with no bound clock stamps 0.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/trace_event.h"
#include "sim/event_queue.h"
#include "util/hot_path.h"

// Compile-time master switch. The build defines
// DISTSCROLL_TRACING_ENABLED=0 (CMake option DISTSCROLL_TRACING=OFF)
// to compile every DS_TRACE call site out of the binary.
#ifndef DISTSCROLL_TRACING_ENABLED
#define DISTSCROLL_TRACING_ENABLED 1
#endif

#if DISTSCROLL_TRACING_ENABLED
#define DS_TRACE(tracer, ...)                          \
  do {                                                 \
    if ((tracer) != nullptr) (tracer)->record(__VA_ARGS__); \
  } while (0)
#define DS_TRACE_AT(tracer, ...)                          \
  do {                                                    \
    if ((tracer) != nullptr) (tracer)->record_at(__VA_ARGS__); \
  } while (0)
#else
#define DS_TRACE(tracer, ...) ((void)0)
#define DS_TRACE_AT(tracer, ...) ((void)0)
#endif

namespace distscroll::obs {

class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  explicit Tracer(std::size_t capacity = kDefaultCapacity,
                  std::uint32_t category_mask = kCatAll)
      : mask_(category_mask) {
    ring_.resize(capacity > 0 ? capacity : 1);
  }

  /// Whether tracing survived the compile-time switch.
  [[nodiscard]] static constexpr bool compiled_in() {
    return DISTSCROLL_TRACING_ENABLED != 0;
  }

  [[nodiscard]] std::uint32_t category_mask() const { return mask_; }

  /// Take timestamps from this queue's simulated clock; record() stamps
  /// 0 until a clock is bound (record_at takes an explicit time).
  void bind_clock(const sim::EventQueue& queue) { clock_ = &queue; }

  // --- the hot path -----------------------------------------------------
  // Allocation-free by construction (the ring is pre-sized; a full ring
  // overwrites, never grows) — lint-enforced here, pinned at runtime by
  // the AllocGuard test.
  DS_HOT_BEGIN
  void record(EventKind kind, std::uint32_t a, std::uint32_t b) {
    record_at(clock_ ? clock_->now().value : 0.0, kind, a, b);
  }

  void record_at(double time_s, EventKind kind, std::uint32_t a, std::uint32_t b) {
    if ((mask_ & category_of(kind)) == 0) return;
    TraceEvent& slot = ring_[head_];
    slot.time_s = time_s;
    slot.kind = kind;
    slot.a = a;
    slot.b = b;
    head_ = (head_ + 1 == ring_.size()) ? 0 : head_ + 1;
    if (size_ < ring_.size()) {
      ++size_;
    } else {
      ++dropped_;  // oldest event just got overwritten
    }
  }
  DS_HOT_END

  // --- inspection -------------------------------------------------------
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }
  /// Events overwritten because the ring was full.
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// The retained events, oldest first (copies out of the ring).
  [[nodiscard]] std::vector<TraceEvent> snapshot() const {
    std::vector<TraceEvent> out;
    out.reserve(size_);
    const std::size_t start = (head_ + ring_.size() - size_) % ring_.size();
    for (std::size_t i = 0; i < size_; ++i) {
      out.push_back(ring_[(start + i) % ring_.size()]);
    }
    return out;
  }

 private:
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint32_t mask_ = kCatAll;
  const sim::EventQueue* clock_ = nullptr;
};

}  // namespace distscroll::obs
