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
  pending.enqueued_at_s = events_->now().value;
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
  // Epochs are unique per arming, so the epoch alone names the frame;
  // [this, epoch] also fits std::function's small buffer (no heap).
  const std::uint64_t epoch = next_epoch_++;
  pending.epoch = epoch;
  pending.timer = events_->schedule_after(util::Seconds{pending.timeout_s},
                                          [this, epoch] { on_timeout(epoch); });
}

void ArqSender::on_timeout(std::uint64_t epoch) {
  const auto it = std::find_if(queue_.begin(), queue_.end(),
                               [&](const Pending& p) { return p.epoch == epoch; });
  // An ack or a drop removes a frame only after cancelling its timer.
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
    ack_callback_(seq, events_->now().value - it->enqueued_at_s, it->attempts);
  }
  // No-op when the timer already fired (frame awaiting retransmit) or
  // the frame was never transmitted.
  events_->cancel(it->timer);
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
  if (!accept_seq(frame.seq)) {
    ++duplicates_discarded_;
    return;
  }
  ++frames_delivered_;
  DS_TRACE(tracer_, obs::EventKind::ArqRx, frame.seq,
           static_cast<std::uint32_t>(frame.payload.size()));
  if (frame_sink_) frame_sink_(frame);
}

bool ArqReceiver::accept_seq(std::uint8_t seq) {
  if (!any_received_) {
    any_received_ = true;
    highest_seq_ = seq;
    seen_mask_ = 1;
    return true;
  }
  const auto ahead = static_cast<std::uint8_t>(seq - highest_seq_);
  if (ahead != 0 && ahead < 128) {
    // Window advances; shift history along.
    seen_mask_ = (ahead >= 64) ? 0 : (seen_mask_ << ahead);
    seen_mask_ |= 1;
    highest_seq_ = seq;
    return true;
  }
  const auto behind = static_cast<std::uint8_t>(highest_seq_ - seq);
  if (behind < 64) {
    const std::uint64_t bit = 1ull << behind;
    if (seen_mask_ & bit) return false;
    seen_mask_ |= bit;
    return true;
  }
  return false;  // older than the dedupe horizon: assume duplicate
}

}  // namespace distscroll::wireless
