#include "wireless/arq.h"

#include <algorithm>
#include <cassert>

namespace distscroll::wireless {

// --- sender -----------------------------------------------------------------

bool ArqSender::send(FrameType type, std::span<const std::uint8_t> payload) {
  if (payload.size() > kMaxPayload) return false;
  if (queue_.size() >= config_.queue_capacity) {
    ++drops_queue_full_;
    return false;
  }
  Pending& pending = queue_.emplace_back();
  pending.seq = next_seq_++;
  pending.wire_len =
      static_cast<std::uint8_t>(encode_into(type, pending.seq, payload, pending.wire));
  pending.enqueued_at_s = now_s();
  pending.timeout_s = config_.initial_timeout.value;
  ++frames_accepted_;
  pump();
  return true;
}

void ArqSender::pump() {
  if (!wire_sink_) return;
  const std::size_t active = std::min(config_.window, queue_.size());
  for (std::size_t i = 0; i < active; ++i) {
    Pending& pending = queue_[i];
    if (!pending.needs_tx) continue;
    if (!wire_sink_(pending.bytes())) return;  // transport full; wait for tx space
    pending.needs_tx = false;
    ++pending.attempts;
    ++transmissions_;
    if (pending.attempts > 1) {
      ++retransmissions_;
      DS_TRACE(tracer_, obs::EventKind::ArqRetry, pending.seq,
               static_cast<std::uint32_t>(pending.attempts));
    } else {
      DS_TRACE(tracer_, obs::EventKind::ArqTx, pending.seq,
               static_cast<std::uint32_t>(pending.wire_len));
    }
    arm_timer(pending);
  }
}

void ArqSender::arm_timer(Pending& pending) {
  pending.deadline.time_s = now_s() + pending.timeout_s;
  if (windowed_clock_ != nullptr) {
    pending.deadline.order = windowed_clock_->arm();
    return;
  }
  // The queue's schedule takes the clock's next arm number itself; the
  // order also names the frame, and [this, order] fits std::function's
  // small buffer (no heap).
  const std::uint64_t order = clock_->next_arm();
  pending.deadline.order = order;
  pending.timer = events_->schedule_at(util::Seconds{pending.deadline.time_s},
                                       [this, order] { expire(order); });
}

sim::Deadline ArqSender::next_deadline() const {
  // Only active-window frames are ever armed, and erasures ahead of an
  // armed frame keep it inside the window.
  sim::Deadline next;
  const std::size_t active = std::min(config_.window, queue_.size());
  for (std::size_t i = 0; i < active; ++i) {
    const Pending& pending = queue_[i];
    if (!pending.needs_tx && pending.deadline < next) next = pending.deadline;
  }
  return next;
}

void ArqSender::expire(std::uint64_t order) {
  const auto it = std::find_if(queue_.begin(), queue_.end(), [&](const Pending& p) {
    return !p.needs_tx && p.deadline.order == order;
  });
  // An ack or a drop removes a frame, and with it its deadline.
  assert(it != queue_.end());
  if (it->attempts >= config_.max_attempts) {
    ++drops_retry_exhausted_;
    DS_TRACE(tracer_, obs::EventKind::ArqDrop, it->seq,
             static_cast<std::uint32_t>(it->attempts));
    const std::uint8_t seq = it->seq;
    queue_.erase(it);
    if (drop_callback_) drop_callback_(seq);
  } else {
    it->needs_tx = true;
    it->timeout_s = std::min(it->timeout_s * config_.backoff_factor, config_.max_timeout.value);
  }
  pump();
}

void ArqSender::on_ack_byte(std::uint8_t byte) {
  for (auto frame = ack_decoder_.feed(byte); frame; frame = ack_decoder_.poll()) {
    if (frame->type == FrameType::Ack) on_ack(frame->seq);
  }
}

void ArqSender::on_ack(std::uint8_t seq) {
  const auto it = std::find_if(queue_.begin(), queue_.end(),
                               [&](const Pending& p) { return p.seq == seq; });
  if (it == queue_.end()) {
    ++duplicate_acks_;
    return;
  }
  ++acks_received_;
  if (ack_callback_) {
    ack_callback_(seq, now_s() - it->enqueued_at_s, it->attempts);
  }
  // The erase takes a windowed owner's deadline with it. An event-driven
  // owner's cancel is a no-op when the timer already fired (frame
  // awaiting retransmit) or the frame was never transmitted.
  if (events_ != nullptr) events_->cancel(it->timer);
  queue_.erase(it);
  pump();  // the window slid: queued frames may now transmit
}

std::optional<double> ArqSender::enqueue_time_s(std::uint8_t seq) const {
  const auto it = std::find_if(queue_.begin(), queue_.end(),
                               [&](const Pending& p) { return p.seq == seq; });
  if (it == queue_.end()) return std::nullopt;
  return it->enqueued_at_s;
}

std::size_t ArqSender::in_flight() const {
  return static_cast<std::size_t>(std::count_if(
      queue_.begin(), queue_.end(), [](const Pending& p) { return p.attempts > 0; }));
}

std::size_t ArqSender::unsent() const {
  const std::size_t active = std::min(config_.window, queue_.size());
  std::size_t waiting = 0;
  for (std::size_t i = 0; i < active; ++i) {
    if (queue_[i].needs_tx) ++waiting;
  }
  return waiting;
}

// --- receiver ---------------------------------------------------------------

void ArqReceiver::on_byte(std::uint8_t byte) {
  for (auto frame = decoder_.feed(byte); frame; frame = decoder_.poll()) {
    on_frame(*frame);
  }
}

void ArqReceiver::on_frame(const Frame& frame) {
  if (frame.type == FrameType::Ack) return;  // not expected on the forward channel
  // Ack every arrival, duplicates included: the sender retransmitting
  // means our previous ack may have died on the reverse channel.
  Frame ack;
  ack.type = FrameType::Ack;
  ack.seq = frame.seq;
  if (ack_sink_ && ack_sink_(encode(ack))) {
    ++acks_sent_;
  } else {
    ++acks_backpressured_;
  }
  // TooOld counts as a duplicate: past the horizon the two are one.
  if (!window_.admit(frame.seq).accepted()) {
    ++duplicates_discarded_;
    return;
  }
  ++frames_delivered_;
  DS_TRACE(tracer_, obs::EventKind::ArqRx, frame.seq,
           static_cast<std::uint32_t>(frame.payload.size()));
  if (frame_sink_) frame_sink_(frame);
}

}  // namespace distscroll::wireless
