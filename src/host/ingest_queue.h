// Bounded multi-producer ingest queue with per-producer lanes and a
// fixed merge order.
//
// The host side of a thousand-device fleet cannot use a free-for-all
// MPSC queue: the interleaving of concurrent pushes would make the
// accepted stream depend on thread scheduling, and this repo's
// determinism contract (DESIGN.md §7/§12) requires ingest results to be
// bit-identical at any thread count. The queue therefore follows the
// same fold-then-merge shape as study::FleetEngine:
//
//   * producers are sharded into LANES (fixed by config, NOT by thread
//     count); each lane is a bounded SPSC ring owned by exactly one
//     producer during the produce phase of a window;
//   * the consumer drains lanes in ASCENDING LANE ORDER between produce
//     phases — the merge order is part of the result's identity;
//   * the ThreadPool barrier between phases is the only synchronisation
//     needed, so the rings are plain memory with no atomics on the push
//     path.
//
// try_push() failing (lane full) is the backpressure signal: the device
// link's ARQ wire sink returns false, the ARQ sender holds the frame in
// its retransmit queue, and the pipeline re-pumps it via
// notify_tx_space() after the consumer drains — PR 1's UART TX
// backpressure hook, reused for host overload.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "wireless/packet.h"

namespace distscroll::host {

/// One wire frame as it came off a device link: the raw encoded image
/// (validated later, in batch, by the consumer) plus the transport
/// metadata framing cannot carry — which device link it arrived on and
/// the simulated arrival time in microseconds.
struct RawRecord {
  std::uint64_t t_us = 0;
  std::uint16_t device_id = 0;
  std::uint8_t len = 0;
  std::array<std::uint8_t, wireless::kMaxEncodedFrame> wire{};
};

class IngestQueue {
 public:
  IngestQueue(std::size_t lanes, std::size_t lane_capacity)
      : lanes_(lanes), capacity_(lane_capacity) {
    for (Lane& lane : lanes_) lane.ring.resize(capacity_);
  }

  [[nodiscard]] std::size_t lanes() const { return lanes_.size(); }
  [[nodiscard]] std::size_t lane_capacity() const { return capacity_; }

  /// Producer side (one producer per lane per phase). False when the
  /// lane is full — the caller must treat this as transport
  /// backpressure, not loss.
  [[nodiscard]] bool try_push(std::size_t lane_index, const RawRecord& record) {
    Lane& lane = lanes_[lane_index];
    if (lane.count == capacity_) return false;
    lane.ring[lane.head] = record;
    if (++lane.head == capacity_) lane.head = 0;
    ++lane.count;
    return true;
  }

  [[nodiscard]] std::size_t size(std::size_t lane_index) const {
    return lanes_[lane_index].count;
  }
  [[nodiscard]] std::size_t free(std::size_t lane_index) const {
    return capacity_ - lanes_[lane_index].count;
  }
  /// Total queued across lanes (the queue-depth gauge).
  [[nodiscard]] std::size_t depth() const {
    std::size_t total = 0;
    for (const Lane& lane : lanes_) total += lane.count;
    return total;
  }

  /// Consumer side: pop up to out.size() records from one lane, oldest
  /// first, into `out`. Returns the number popped.
  std::size_t pop_batch(std::size_t lane_index, std::span<RawRecord> out) {
    Lane& lane = lanes_[lane_index];
    std::size_t popped = 0;
    while (popped < out.size() && lane.count > 0) {
      out[popped++] = lane.ring[lane.tail];
      if (++lane.tail == capacity_) lane.tail = 0;
      --lane.count;
    }
    return popped;
  }

 private:
  struct Lane {
    std::vector<RawRecord> ring;
    std::size_t head = 0;
    std::size_t tail = 0;
    std::size_t count = 0;
  };
  std::vector<Lane> lanes_;
  std::size_t capacity_;
};

}  // namespace distscroll::host
