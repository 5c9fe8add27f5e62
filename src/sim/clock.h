// Simulated wall clock.
//
// A SimClock is simulated time plus an arm counter. Every event or
// deadline armed against the clock takes the next arm number, and
// events due at the same time dispatch in ascending arm order — the
// (time, arm order) rule that makes every run deterministic given the
// RNG seeds.
//
// Two kinds of owner advance a clock:
//   * an EventQueue owns one and moves it as it dispatches; the MCU,
//     sensors, human model and byte-level wireless link share it;
//   * an owner with a fixed handful of deadlines owns one directly,
//     dispatches its own deadlines by the same rule and advances it:
//     host::SimDeviceLink (one telemetry tick plus its ARQ sender's
//     retransmit deadlines) and wireless::EventArqSender (its ARQ
//     sender's deadlines, woken by one event on an EventQueue whose
//     time its clock follows).
#pragma once

#include <cstdint>
#include <limits>

#include "util/units.h"

namespace distscroll::sim {

class SimClock {
 public:
  [[nodiscard]] util::Seconds now() const { return now_; }
  /// Take an arm number for an event or deadline being armed.
  std::uint64_t arm() { return arms_++; }
  void advance_to(util::Seconds t) { now_ = t; }

 private:
  util::Seconds now_{0.0};
  std::uint64_t arms_ = 0;
};

/// When an armed event falls due. Deadlines order by (time, arm order);
/// the default value is "never", later than every armed deadline.
struct Deadline {
  double time_s = std::numeric_limits<double>::infinity();
  std::uint64_t order = std::numeric_limits<std::uint64_t>::max();

  auto operator<=>(const Deadline&) const = default;
};

}  // namespace distscroll::sim
