// Reliable delivery on top of the lossy RF link (selective-repeat ARQ).
//
// The raw telemetry path drops whatever the link corrupts; good enough
// for live monitoring, not for study logging that must reconstruct every
// trial (cf. ScrollTest's insistence on trustworthy event streams). This
// layer adds the classic fix:
//
//   device  ArqSender ──frames──▶ RfLink ──▶ ArqReceiver  host
//            ▲                                    │
//            └────────── Ack frames ◀─────────────┘
//
// * 8-bit sequence numbers, a sliding window of 8 unacked frames;
// * per-frame retransmit timers with exponential backoff
//   (initial_timeout · backoff_factor^attempt, capped at max_timeout);
//   each armed timer is a deadline and an arm number in its frame's
//   queue entry, so an ack removes it with its frame;
// * a bounded device-side retransmit queue (`queue_capacity`) — the
//   PIC's RAM budget is real, so overload sheds new frames, counted;
// * frames that exhaust `max_attempts` transmissions are dropped and
//   counted rather than wedging the window;
// * the receiver acks every arriving data frame (re-acking duplicates,
//   since the first ack may itself have been lost) and deduplicates via
//   util::SeqWindow (a 64-frame seen-bitmap) before delivering upward.
//
// Acks ride the same framing (FrameType::Ack, seq = acked sequence, no
// payload) over whatever reverse channel the caller wires up; the sender
// takes them already decoded, as on_ack(seq).
//
// Device time is a sim::SimClock the owner advances, and the sender never
// wakes itself: the owner reads next_deadline() and calls expire() when
// it falls due, by the clock's (time, arm order) rule — host::SimDeviceLink
// inside its step windows, EventArqSender on a sim::EventQueue for the
// byte-level UART/RfLink simulations.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "sim/clock.h"
#include "util/function_ref.h"
#include "util/seq_window.h"
#include "util/units.h"
#include "wireless/packet.h"

namespace distscroll::sim {
class EventQueue;
}

namespace distscroll::wireless {

/// Pushes one encoded wire frame at the transport; must be all-or-nothing
/// and return false when the transport has no room (UART TX FIFO full).
/// A sender then waits for notify_tx_space(). A non-owning view: the
/// bound callable (a named lambda, or `this` plus a trampoline) must
/// outlive the endpoint it is set on.
using WireSink = util::FunctionRef<bool(std::span<const std::uint8_t>)>;

/// The overload run of exp_host_ingest sets `queue_capacity`. The retry
/// fields are test seams: tests shorten the timeouts and attempts, or
/// turn retries off with a long timeout.
struct ArqConfig {
  std::size_t queue_capacity = 32;  // bounded retransmit queue (device RAM)
  util::Seconds initial_timeout{0.030};
  double backoff_factor = 2.0;
  util::Seconds max_timeout{0.5};
  int max_attempts = 10;  // total transmissions, including the first
};

/// Device-side endpoint: owns the retransmit queue and timers.
class ArqSender {
 public:
  /// Invoked when a frame is acked: (seq, delivery latency from first
  /// enqueue to ack, transmissions used).
  using AckCallback = std::function<void(std::uint8_t, double, int)>;

  /// Device time is `clock`; armings take its arm numbers.
  ArqSender(ArqConfig config, sim::SimClock& clock) : config_(config), clock_(&clock) {}

  void set_wire_sink(WireSink sink) { wire_sink_ = sink; }
  void set_ack_callback(AckCallback cb) { ack_callback_ = std::move(cb); }

  /// Queue a frame for reliable delivery; the payload is encoded into
  /// the retransmit queue at once, so the span need not outlive the
  /// call. Returns false (and counts the drop) when the bounded queue is
  /// full; returns false without queueing a payload over kMaxPayload.
  bool send(FrameType type, std::span<const std::uint8_t> payload);

  /// The host acked `seq`: report it, drop the frame and its deadline,
  /// and let the window slide. An ack for a seq no longer queued (a
  /// re-ack of a retransmitted frame) is ignored.
  void on_ack(std::uint8_t seq);

  /// UART backpressure hook: the TX FIFO freed a byte, try flushing.
  void notify_tx_space() { pump(); }

  /// The earliest armed retransmit deadline by (time, arm order), or
  /// "never" when no transmitted frame awaits its ack.
  [[nodiscard]] sim::Deadline next_deadline() const;

  /// The retransmit deadline armed with arm number `order` fell due (the
  /// device clock reads its time): retransmit its frame with the
  /// backed-off timeout, or drop it after max_attempts transmissions.
  void expire(std::uint64_t order);

  /// First-enqueue time of a still-pending frame (for latency probes).
  [[nodiscard]] std::optional<double> enqueue_time_s(std::uint8_t seq) const;

  [[nodiscard]] std::size_t queued() const { return queue_.size(); }

  // Link counters (exp_wireless_link prints them).
  [[nodiscard]] std::uint64_t frames_accepted() const { return frames_accepted_; }
  [[nodiscard]] std::uint64_t transmissions() const { return transmissions_; }
  [[nodiscard]] std::uint64_t retransmissions() const { return retransmissions_; }
  [[nodiscard]] std::uint64_t acks_received() const { return acks_received_; }
  [[nodiscard]] std::uint64_t drops_queue_full() const { return drops_queue_full_; }
  [[nodiscard]] std::uint64_t drops_retry_exhausted() const { return drops_retry_exhausted_; }

 private:
  struct Pending {
    std::array<std::uint8_t, kMaxEncodedFrame> wire;  // encoded once, retransmitted verbatim
    std::uint8_t wire_len = 0;
    std::uint8_t seq = 0;
    bool needs_tx = true;    // not yet (re)transmitted
    int attempts = 0;        // transmissions so far
    double enqueued_at_s = 0.0;
    double timeout_s = 0.0;  // current backoff value
    sim::Deadline deadline;  // the armed retransmit timer, while !needs_tx
  };

  void pump();
  [[nodiscard]] double now_s() const { return clock_->now().value; }

  ArqConfig config_;
  sim::SimClock* clock_;  // device time
  WireSink wire_sink_;
  AckCallback ack_callback_;
  // Seq order; the first kWindow entries are active. Grows to the
  // link's peak depth, then erase/emplace reuse its capacity.
  std::vector<Pending> queue_;
  std::uint8_t next_seq_ = 0;
  std::uint64_t frames_accepted_ = 0;
  std::uint64_t transmissions_ = 0;
  std::uint64_t retransmissions_ = 0;
  std::uint64_t acks_received_ = 0;
  std::uint64_t drops_queue_full_ = 0;
  std::uint64_t drops_retry_exhausted_ = 0;
};

/// An ArqSender driven by a sim::EventQueue, for the byte-level UART/RfLink
/// simulations: it runs the sender at the queue's time, decodes the ack
/// bytes, and keeps one queue event at next_deadline() to expire it.
class EventArqSender {
 public:
  EventArqSender(ArqConfig config, sim::EventQueue& queue)
      : queue_(&queue), sender_(config, clock_) {}

  EventArqSender(const EventArqSender&) = delete;  // the wake event holds `this`
  EventArqSender& operator=(const EventArqSender&) = delete;

  void set_wire_sink(WireSink sink) { sender_.set_wire_sink(sink); }
  void set_ack_callback(ArqSender::AckCallback cb) { sender_.set_ack_callback(std::move(cb)); }

  /// ArqSender::send at the queue's time.
  bool send(FrameType type, std::span<const std::uint8_t> payload);
  /// Feed reverse-channel bytes (the host's ack stream). The channel can
  /// corrupt them (RfLink): the decoder resyncs and drops damaged acks,
  /// and the retransmit deadline recovers.
  void on_ack_byte(std::uint8_t byte);
  /// UART backpressure hook: the TX FIFO freed a byte, try flushing.
  void notify_tx_space();

  [[nodiscard]] const ArqSender& sender() const { return sender_; }

 private:
  /// Move the wake event to the sender's next deadline if it changed;
  /// when it fires, it expires that deadline.
  void rewake();

  sim::EventQueue* queue_;
  sim::SimClock clock_;  // device time: the queue's, as of the last call
  ArqSender sender_;
  FrameDecoder ack_decoder_;
  sim::Deadline wake_at_;  // the deadline the wake event is scheduled for
  std::uint64_t wake_ = 0;  // its sim::EventQueue::Handle (0: none yet)
};

/// Host-side endpoint: decodes, deduplicates, acks, delivers.
class ArqReceiver {
 public:
  /// The delivered frame's payload borrows the decoder's window: valid
  /// only during the call.
  using FrameSink = std::function<void(const FrameView&)>;

  void set_frame_sink(FrameSink sink) { frame_sink_ = std::move(sink); }
  void set_ack_sink(WireSink sink) { ack_sink_ = sink; }

  /// Forward-channel bytes off the RF link.
  void on_byte(std::uint8_t byte);

  [[nodiscard]] const FrameDecoder& decoder() const { return decoder_; }
  [[nodiscard]] std::uint64_t frames_delivered() const { return frames_delivered_; }
  [[nodiscard]] std::uint64_t duplicates_discarded() const { return duplicates_discarded_; }
  [[nodiscard]] std::uint64_t acks_sent() const { return acks_sent_; }

 private:
  void on_frame(const FrameView& frame);

  FrameDecoder decoder_;
  FrameSink frame_sink_;
  WireSink ack_sink_;
  util::SeqWindow window_;
  std::uint64_t frames_delivered_ = 0;
  std::uint64_t duplicates_discarded_ = 0;
  std::uint64_t acks_sent_ = 0;
};

}  // namespace distscroll::wireless
