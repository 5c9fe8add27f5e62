// One simulated DistScroll device wired to the host through a faulty
// channel.
//
// Each link owns a full device-side stack — telemetry source, ARQ
// sender with its own EventQueue (device-local time), and a fault
// injector between the sender's wire sink and the host's ingest lane:
//
//   TelemetrySource ─▶ ArqSender ─▶ [loss / bit-flip / reorder] ─▶ lane
//                         ▲                                         │
//                         └──── acks (with ack-loss) ◀── consumer ──┘
//
// The fault model flips exactly ONE bit per corruption event. CRC-8
// detects every single-bit error, so a corrupted frame is always
// rejected at batch validation — "zero accepted-frame corruption" is a
// provable property, not a probabilistic one (multi-bit patterns can
// collide with CRC-8 at ~2^-8 and would make the acceptance criterion
// flaky by construction).
//
// Backpressure: when the lane lacks room for this frame (plus a held
// reordered frame), the wire sink refuses and the ARQ sender keeps the
// frame in its retransmit queue (needs_tx) — PR 1's UART TX
// backpressure contract. The pipeline re-pumps via step_window() after
// the consumer drains the lane. Under sustained overload the ARQ queue
// itself fills and send() sheds new reports, counted per device.
//
// Every random draw comes from streams forked off the per-device RNG
// and is consumed in device-local event order, so a link's behaviour is
// a pure function of (seed, config) — independent of which thread steps
// it, which is what makes whole-fleet ingest bit-identical across
// thread counts.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "host/ingest_queue.h"
#include "host/telemetry_source.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "wireless/arq.h"
#include "wireless/packet.h"

namespace distscroll::host {

struct LinkFaultConfig {
  double frame_loss = 0.0;  // P(frame vanishes in flight)
  double bit_flip = 0.0;    // P(one bit of the wire image flips)
  double reorder = 0.0;     // P(frame held and delivered after its successor)
  double ack_loss = 0.0;    // P(host ack never reaches the device)
};

class SimDeviceLink {
 public:
  SimDeviceLink(std::uint16_t device_id, std::size_t lane, IngestQueue& queue,
                const wireless::ArqConfig& arq, const LinkFaultConfig& faults,
                double report_period_s, double duration_s, const sim::Rng& device_rng);

  SimDeviceLink(const SimDeviceLink&) = delete;
  SimDeviceLink& operator=(const SimDeviceLink&) = delete;

  /// Advance this device's local simulation to absolute time `end_s`:
  /// consume acks queued by the consumer since the last window, give the
  /// transport-stalled frames another chance (the lane was just
  /// drained), then run telemetry ticks and retransmit timers.
  void step_window(double end_s);

  /// Consumer side (serial drain phase): queue an ack for `seq`. Subject
  /// to ack-loss injection; surviving acks reach ArqSender::on_ack() at
  /// the start of this device's next step_window().
  void queue_ack(std::uint8_t seq);

  /// Telemetry index of the report carried by ARQ sequence `seq`
  /// (positions shed by a full ARQ queue make the two diverge, so the
  /// mapping is recorded per accepted send). Valid while `seq` is inside
  /// the 256-entry ring — the registry's 64-frame horizon guarantees any
  /// acceptable frame still resolves.
  [[nodiscard]] std::uint64_t index_for_seq(std::uint8_t seq) const {
    return seq_to_index_[seq];
  }

  [[nodiscard]] std::uint16_t device_id() const { return device_id_; }
  [[nodiscard]] std::size_t lane() const { return lane_; }
  [[nodiscard]] const TelemetrySource& source() const { return source_; }
  [[nodiscard]] const wireless::ArqSender& sender() const { return sender_; }
  /// Frames still queued device-side (retransmit queue) — the drain
  /// grace loop runs until every link reports zero.
  [[nodiscard]] std::size_t pending() const { return sender_.queued(); }

  // Fault/flow accounting.
  [[nodiscard]] std::uint64_t reports_offered() const { return reports_offered_; }
  [[nodiscard]] std::uint64_t reports_shed() const { return reports_shed_; }
  [[nodiscard]] std::uint64_t frames_lost() const { return frames_lost_; }
  [[nodiscard]] std::uint64_t frames_corrupted() const { return frames_corrupted_; }
  [[nodiscard]] std::uint64_t frames_reordered() const { return frames_reordered_; }
  [[nodiscard]] std::uint64_t backpressure_stalls() const { return backpressure_stalls_; }
  [[nodiscard]] std::uint64_t acks_lost() const { return acks_lost_; }

 private:
  void telemetry_tick();
  bool wire_sink(std::span<const std::uint8_t> wire);
  void deliver(const RawRecord& record);
  void deliver_held();

  std::uint16_t device_id_;
  std::size_t lane_;
  IngestQueue* queue_;
  LinkFaultConfig faults_;
  double report_period_s_;
  double duration_s_;

  sim::EventQueue events_;
  wireless::ArqSender sender_;
  TelemetrySource source_;
  sim::Rng channel_rng_;
  sim::Rng ack_rng_;

  std::array<std::uint64_t, 256> seq_to_index_{};
  // Acks awaiting the device, as seqs: this channel drops whole acks
  // (ack_loss) but never corrupts their bytes, so there is nothing for
  // an encode/CRC/decode round trip to catch.
  std::vector<std::uint8_t> acked_seqs_;

  RawRecord held_{};      // reorder: one frame delayed behind its successor
  bool held_valid_ = false;

  std::uint64_t reports_offered_ = 0;
  std::uint64_t reports_shed_ = 0;
  std::uint64_t frames_lost_ = 0;
  std::uint64_t frames_corrupted_ = 0;
  std::uint64_t frames_reordered_ = 0;
  std::uint64_t backpressure_stalls_ = 0;
  std::uint64_t acks_lost_ = 0;
};

}  // namespace distscroll::host
