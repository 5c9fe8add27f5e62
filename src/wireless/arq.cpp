#include "wireless/arq.h"

#include <algorithm>
#include <cassert>

#include "sim/event_queue.h"

namespace distscroll::wireless {

namespace {
constexpr std::size_t kWindow = 8;  // max unacked frames in flight
}  // namespace

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
  const std::size_t active = std::min(kWindow, queue_.size());
  for (std::size_t i = 0; i < active; ++i) {
    Pending& pending = queue_[i];
    if (!pending.needs_tx) continue;
    if (!wire_sink_({pending.wire.data(), pending.wire_len})) return;  // full: wait for tx space
    pending.needs_tx = false;
    ++pending.attempts;
    ++transmissions_;
    if (pending.attempts > 1) ++retransmissions_;
    pending.deadline = {now_s() + pending.timeout_s, clock_->arm()};  // arm the retransmit timer
  }
}

sim::Deadline ArqSender::next_deadline() const {
  // Only active-window frames are ever armed, and erasures ahead of an
  // armed frame keep it inside the window.
  sim::Deadline next;
  const std::size_t active = std::min(kWindow, queue_.size());
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
    queue_.erase(it);
  } else {
    it->needs_tx = true;
    it->timeout_s = std::min(it->timeout_s * config_.backoff_factor, config_.max_timeout.value);
  }
  pump();
}

void ArqSender::on_ack(std::uint8_t seq) {
  const auto it = std::find_if(queue_.begin(), queue_.end(),
                               [&](const Pending& p) { return p.seq == seq; });
  if (it == queue_.end()) return;
  ++acks_received_;
  if (ack_callback_) {
    ack_callback_(seq, now_s() - it->enqueued_at_s, it->attempts);
  }
  queue_.erase(it);  // and with it the frame's deadline
  pump();  // the window slid: queued frames may now transmit
}

std::optional<double> ArqSender::enqueue_time_s(std::uint8_t seq) const {
  const auto it = std::find_if(queue_.begin(), queue_.end(),
                               [&](const Pending& p) { return p.seq == seq; });
  if (it == queue_.end()) return std::nullopt;
  return it->enqueued_at_s;
}

// --- event-queue owner ------------------------------------------------------

bool EventArqSender::send(FrameType type, std::span<const std::uint8_t> payload) {
  clock_.advance_to(queue_->now());
  const bool accepted = sender_.send(type, payload);
  rewake();
  return accepted;
}

void EventArqSender::on_ack_byte(std::uint8_t byte) {
  clock_.advance_to(queue_->now());
  const auto on_ack = [this](const FrameView& frame) {
    if (frame.type == FrameType::Ack) sender_.on_ack(frame.seq);
  };
  ack_decoder_.feed(byte, on_ack);
  rewake();
}

void EventArqSender::notify_tx_space() {
  clock_.advance_to(queue_->now());
  sender_.notify_tx_space();
  rewake();
}

void EventArqSender::rewake() {
  const sim::Deadline next = sender_.next_deadline();
  if (next == wake_at_) return;
  queue_->cancel(wake_);  // a spent handle cancels nothing
  wake_at_ = next;
  if (next == sim::Deadline{}) return;
  // [this] fits std::function's small buffer (no heap).
  wake_ = queue_->schedule_at(util::Seconds{next.time_s}, [this] {
    const std::uint64_t order = wake_at_.order;
    wake_at_ = sim::Deadline{};  // this event is spent
    clock_.advance_to(queue_->now());
    sender_.expire(order);
    rewake();
  });
}

// --- receiver ---------------------------------------------------------------

void ArqReceiver::on_byte(std::uint8_t byte) {
  const auto deliver = [this](const FrameView& frame) { on_frame(frame); };
  decoder_.feed(byte, deliver);
}

void ArqReceiver::on_frame(const FrameView& frame) {
  if (frame.type == FrameType::Ack) return;  // not expected on the forward channel
  // Ack every arrival, duplicates included: the sender retransmitting
  // means our previous ack may have died on the reverse channel.
  std::array<std::uint8_t, kMaxEncodedFrame> ack;
  const std::size_t ack_len = encode_into(FrameType::Ack, frame.seq, {}, ack);
  if (ack_sink_ && ack_sink_({ack.data(), ack_len})) ++acks_sent_;
  // TooOld counts as a duplicate: past the horizon the two are one.
  if (!window_.admit(frame.seq).accepted()) {
    ++duplicates_discarded_;
    return;
  }
  ++frames_delivered_;
  if (frame_sink_) frame_sink_(frame);
}

}  // namespace distscroll::wireless
