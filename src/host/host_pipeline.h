// The multi-device host ingest pipeline: N simulated device links →
// lane-sharded bounded queue → batch validation → per-device sequence
// accounting → columnar compaction.
//
// Execution is WINDOW-PHASED. Simulated time advances in fixed windows
// (window_s); within each window:
//
//   1. produce phase — a parallel_for over LANES steps every device
//      assigned to that lane (each device's own clock and deadlines:
//      telemetry ticks, retransmit timers, fault rolls). One thread owns
//      a lane for the whole phase, so lane rings need no synchronisation.
//   2. barrier (ThreadPool::parallel_for returns).
//   3. drain phase — single-threaded, lanes drained in ASCENDING lane
//      order, frames in arrival order within a lane: batch CRC
//      validation (parse_wire_frame), DeviceRegistry admission, ack
//      generation back into each device's reverse channel, content
//      verification against the device's pure telemetry source, and
//      ColumnarWriter append for every accepted frame.
//
// Lane assignment is a pure function of (device_id, lanes, devices) and
// the drain order is fixed, so the accepted stream — and therefore the
// DSTL bytes, the metrics JSON, every counter — is bit-identical for
// any `threads` value: threads only change which worker steps a lane,
// never what any lane contains (tests/host_test.cpp pins 1/2/8).
//
// After duration_s the pipeline keeps running drain windows (no new
// telemetry ticks fire) until every device's ARQ queue is empty or
// drain_grace_s is exhausted, so in-flight retransmissions get their
// chance to land; `complete` reports whether the fleet fully drained.
#pragma once

#include <cstdint>
#include <vector>

#include "host/columnar.h"
#include "host/sim_link.h"
#include "obs/metrics.h"
#include "wireless/arq.h"

namespace distscroll::host {

struct HostIngestConfig {
  std::size_t devices = 8;
  // Lanes shard devices contiguously in id order and drain ascending,
  // so with ample capacity the merged stream is device-id order no
  // matter the lane count; lanes shape results only through capacity
  // (backpressure boundaries) — see tests/host_test.cpp.
  std::size_t lanes = 4;
  std::size_t lane_capacity = 256;
  std::size_t batch = 64;         // drain batch size (pop_batch granularity)
  double report_hz = 38.0;        // per-device telemetry rate (PIC tick rate)
  double duration_s = 1.0;        // telemetry generation horizon
  double window_s = 0.02;         // produce/drain cadence; bounds ack turnaround
  double drain_grace_s = 2.0;     // post-duration budget for retransmit recovery
  LinkFaultConfig faults{};
  // ARQ with the initial timeout raised above the worst-case ack
  // turnaround (two windows: ack queued during this window's drain,
  // consumed at the next window's start) so a healthy link never
  // spuriously retransmits.
  wireless::ArqConfig arq{.initial_timeout = util::Seconds{0.12}};
  std::uint64_t base_seed = 0x5EED;
  std::uint16_t session_id = 0;
  std::size_t threads = 1;        // 0 = hardware_concurrency; NOT part of identity
  // Re-derive every accepted frame from its device's pure telemetry
  // source and compare — the zero-corruption acceptance check. Costs a
  // few RNG draws per frame; benches may turn it off after the property
  // pass has run.
  bool verify_content = true;
};

struct HostIngestStats {
  // Device side.
  std::uint64_t reports_offered = 0;
  std::uint64_t reports_shed = 0;       // ARQ queue full at send()
  std::uint64_t arq_transmissions = 0;
  std::uint64_t arq_retransmissions = 0;
  std::uint64_t arq_drops_retry_exhausted = 0;
  std::uint64_t backpressure_stalls = 0;
  // Channel fault injection.
  std::uint64_t link_frames_lost = 0;
  std::uint64_t link_frames_corrupted = 0;
  std::uint64_t link_frames_reordered = 0;
  std::uint64_t acks_lost = 0;
  // Host side.
  std::uint64_t frames_drained = 0;     // popped off the queue
  std::uint64_t frames_crc_rejected = 0;
  std::uint64_t frames_malformed = 0;   // parsed but not a 6-byte State payload
  std::uint64_t frames_accepted = 0;
  std::uint64_t frames_reordered = 0;   // subset of accepted
  std::uint64_t frames_duplicate = 0;
  std::uint64_t frames_too_old = 0;
  std::uint64_t sequence_gaps = 0;      // residual unfilled gaps
  std::uint64_t content_mismatches = 0; // MUST stay 0
  std::uint64_t devices_seen = 0;
  std::size_t max_queue_depth = 0;      // peak total after a produce phase
  std::uint64_t windows = 0;
  bool complete = false;                // fleet fully drained inside grace
};

struct HostIngestResult {
  std::vector<std::uint8_t> dstl;       // finished DSTL container
  std::vector<CompactRecord> records;   // the accepted stream, decoded
  HostIngestStats stats;
};

/// Run a full ingest session. When `metrics` is non-null the pipeline
/// maintains host_* counters, the host_queue_depth gauge and the
/// host_ingest_latency log2 histogram in it; passing the same config
/// must yield byte-identical to_json_fields() output for any
/// config.threads (the metrics half of the bit-identity contract).
HostIngestResult run_host_ingest(const HostIngestConfig& config,
                                 obs::MetricsRegistry* metrics = nullptr);

}  // namespace distscroll::host
