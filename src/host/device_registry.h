// Per-device sequence bookkeeping for the multi-device ingest pipeline.
//
// Every simulated DistScroll device numbers its telemetry frames with an
// independent 8-bit ARQ sequence; the host sees all of those streams
// interleaved (plus ARQ retransmissions, which arrive late, duplicated
// or out of order). The registry is the single authority on what the
// host ACCEPTS: it keeps one util::SeqWindow per device id (the same
// 64-frame window ArqReceiver dedupes with), so each arriving frame gets
// the window's verdict (Accept, AcceptReordered, Duplicate, TooOld; see
// util/seq_window.h), and the registry adds only the counters: accepted,
// reordered, duplicates, too-old, and the gaps forward jumps opened and
// late frames have not yet filled.
//
// The accepted stream per device is therefore exactly-once: a frame
// sequence number is accepted at most once while it is inside the
// horizon, which is what makes the downstream columnar compaction a
// faithful record (tests/host_test.cpp holds the exactly-once property
// under loss + reorder + duplication fault injection).
#pragma once

#include <cstdint>
#include <vector>

#include "util/seq_window.h"

namespace distscroll::host {

class DeviceRegistry {
 public:
  using Verdict = util::SeqWindow::Verdict;
  using Decision = util::SeqWindow::Decision;

  /// `max_devices` bounds the id space; admit() of an id >= max_devices
  /// is classified TooOld (counted, never accepted) rather than growing
  /// state on attacker-controlled input.
  explicit DeviceRegistry(std::size_t max_devices);

  Decision admit(std::uint16_t device_id, std::uint8_t seq);

  struct DeviceStats {
    util::SeqWindow window;
    std::uint64_t accepted = 0;
    std::uint64_t reordered = 0;  // subset of accepted
    std::uint64_t duplicates = 0;
    std::uint64_t too_old = 0;
    /// Sequence slots skipped by forward jumps and not (yet) filled by a
    /// late frame. Transiently over-counts while a reordered frame is in
    /// flight; settles once the stream drains.
    std::uint64_t gaps = 0;
  };

  [[nodiscard]] const DeviceStats& stats(std::uint16_t device_id) const {
    return devices_[device_id];
  }
  [[nodiscard]] std::size_t max_devices() const { return devices_.size(); }
  /// Devices that have had at least one frame admitted.
  [[nodiscard]] std::size_t devices_seen() const { return devices_seen_; }

  // Totals across all devices (each also per-device via stats()).
  [[nodiscard]] std::uint64_t accepted() const { return accepted_; }
  [[nodiscard]] std::uint64_t reordered() const { return reordered_; }
  [[nodiscard]] std::uint64_t duplicates() const { return duplicates_; }
  [[nodiscard]] std::uint64_t too_old() const { return too_old_; }
  [[nodiscard]] std::uint64_t gaps() const { return gaps_; }

 private:
  std::vector<DeviceStats> devices_;
  std::size_t devices_seen_ = 0;
  std::uint64_t accepted_ = 0;
  std::uint64_t reordered_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t too_old_ = 0;
  std::uint64_t gaps_ = 0;
};

}  // namespace distscroll::host
