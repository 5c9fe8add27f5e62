#include "host/device_registry.h"

namespace distscroll::host {

DeviceRegistry::DeviceRegistry(std::size_t max_devices) : devices_(max_devices) {}

DeviceRegistry::Decision DeviceRegistry::admit(std::uint16_t device_id, std::uint8_t seq) {
  if (device_id >= devices_.size()) {
    ++too_old_;
    return {Verdict::TooOld, 0};
  }
  DeviceStats& dev = devices_[device_id];
  if (!dev.window.started()) ++devices_seen_;
  const Decision decision = dev.window.admit(seq);
  switch (decision.verdict) {
    case Verdict::Accept:
      // Everything a forward jump skipped is a gap until (unless) a late
      // frame fills it.
      dev.gaps += decision.gap_delta;
      gaps_ += decision.gap_delta;
      break;
    case Verdict::AcceptReordered:
      // A late frame landing inside a gap: the hole is filled. Saturating
      // decrement — a late frame that predates the device's FIRST
      // delivered frame fills a hole that was never counted (no forward
      // jump skipped it), and must not drive the counter negative. The
      // totals still settle exactly once the stream drains: decrements
      // are capped by counted gaps, and every remaining fill is a no-op.
      if (dev.gaps > 0) {
        --dev.gaps;
        --gaps_;
      }
      ++dev.reordered;
      ++reordered_;
      break;
    case Verdict::Duplicate:
      ++dev.duplicates;
      ++duplicates_;
      return decision;
    case Verdict::TooOld:
      ++dev.too_old;
      ++too_old_;
      return decision;
  }
  ++dev.accepted;
  ++accepted_;
  return decision;
}

}  // namespace distscroll::host
