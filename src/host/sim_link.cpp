#include "host/sim_link.h"

#include <cmath>

namespace distscroll::host {

namespace {
// Stream tags for the per-device RNG forks. Fixed forever: changing a
// tag re-rolls every committed artifact (golden DSTL, bench baseline).
constexpr std::uint64_t kSourceStream = 0;
constexpr std::uint64_t kChannelStream = 1;
constexpr std::uint64_t kAckStream = 2;
constexpr std::uint64_t kPhaseStream = 3;
}  // namespace

SimDeviceLink::SimDeviceLink(std::uint16_t device_id, std::size_t lane, IngestQueue& queue,
                             const wireless::ArqConfig& arq, const LinkFaultConfig& faults,
                             double report_period_s, double duration_s,
                             const sim::Rng& device_rng)
    : device_id_(device_id),
      lane_(lane),
      queue_(&queue),
      faults_(faults),
      report_period_s_(report_period_s),
      duration_s_(duration_s),
      sender_(arq, clock_),
      source_(device_rng.fork(kSourceStream)),
      channel_rng_(device_rng.fork(kChannelStream)),
      ack_rng_(device_rng.fork(kAckStream)) {
  // A direct call into the lane: the sender holds only `this` and the
  // trampoline, and the link (neither copyable nor movable) outlives it.
  sender_.set_wire_sink({this, [](void* link, std::span<const std::uint8_t> wire) {
                           return static_cast<SimDeviceLink*>(link)->wire_sink(wire);
                         }});
  // Stagger device start phases across one report period so a 10k-device
  // fleet doesn't fire every tick at the same instant (which would be
  // both unrealistic and a worst-case burst into the lanes).
  sim::Rng phase = device_rng.fork(kPhaseStream);
  const double offset_s = phase.uniform01() * report_period_s_;
  tick_ = sim::Deadline{offset_s, clock_.arm()};
}

void SimDeviceLink::telemetry_tick() {
  const std::uint64_t index = reports_offered_++;
  const wireless::StateReport report = source_.report_at(index);
  // The seq this send will get, if accepted: next_seq_ and
  // frames_accepted_ both advance only on accepted sends, so they track.
  const auto seq = static_cast<std::uint8_t>(sender_.frames_accepted() & 0xFF);
  std::array<std::uint8_t, wireless::StateReport::kPackedSize> payload;
  report.pack_into(payload);
  if (sender_.send(wireless::FrameType::State, payload)) {
    if (seq_to_index_) (*seq_to_index_)[seq] = index;
  } else {
    ++reports_shed_;  // ARQ queue full: device RAM budget says drop new
    if (!seq_to_index_) {
      // From here on index and seq diverge: record the identity that
      // held so far, then every accepted send.
      auto map = std::make_unique<std::array<std::uint64_t, 256>>();
      for (std::size_t s = 0; s < map->size(); ++s) {
        (*map)[s] = index_for_seq(static_cast<std::uint8_t>(s));
      }
      seq_to_index_ = std::move(map);
    }
  }
  const double next_s = clock_.now().value + report_period_s_;
  tick_ = next_s <= duration_s_ ? sim::Deadline{next_s, clock_.arm()} : sim::Deadline{};
}

bool SimDeviceLink::wire_sink(std::span<const std::uint8_t> wire) {
  // Room check BEFORE any fault roll: a backpressured attempt must not
  // consume channel randomness (the retry is the "real" transmission).
  // Needs one slot for this frame plus one for a held reordered frame.
  const std::size_t needed = held_valid_ ? 2u : 1u;
  if (queue_->free(lane_) < needed) {
    ++backpressure_stalls_;
    return false;  // ARQ keeps the frame; step_window() re-pumps later
  }
  if (channel_rng_.bernoulli(faults_.frame_loss)) {
    ++frames_lost_;
    // The frame behind a lost one still arrives.
    deliver_held();
    return true;  // the device believes it transmitted; timeout recovers
  }
  RawRecord record;
  record.t_us = static_cast<std::uint64_t>(std::llround(clock_.now().value * 1e6));
  record.device_id = device_id_;
  record.len = static_cast<std::uint8_t>(wire.size());
  for (std::size_t i = 0; i < wire.size(); ++i) record.wire[i] = wire[i];
  if (channel_rng_.bernoulli(faults_.bit_flip)) {
    // Exactly one bit: always caught by CRC-8 (see header).
    const int bit = channel_rng_.uniform_int(0, static_cast<int>(wire.size()) * 8 - 1);
    record.wire[static_cast<std::size_t>(bit) / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    ++frames_corrupted_;
  }
  if (!held_valid_ && channel_rng_.bernoulli(faults_.reorder)) {
    held_ = record;
    held_valid_ = true;
    ++frames_reordered_;
    return true;  // delivered later, after its successor
  }
  deliver(record);
  deliver_held();
  return true;
}

void SimDeviceLink::deliver(const RawRecord& record) {
  // Cannot fail: wire_sink checked for room up front, and the serial
  // consumer never pushes.
  const bool pushed = queue_->try_push(lane_, record);
  static_cast<void>(pushed);
}

void SimDeviceLink::deliver_held() {
  if (!held_valid_) return;
  held_valid_ = false;
  deliver(held_);
}

void SimDeviceLink::queue_ack(std::uint8_t seq) {
  if (ack_rng_.bernoulli(faults_.ack_loss)) {
    ++acks_lost_;
    return;
  }
  acked_seqs_.push_back(seq);
}

void SimDeviceLink::step_window(double end_s) {
  // An idle window: no ack to take, nothing queued to (re)send and no
  // tick due. It would call no sink, draw nothing and arm nothing, so
  // return at once. The clock may lag until the next event: with the
  // ARQ queue empty, every read of it follows an advance_to to an
  // event time (the tick that queues the next frame).
  if (acked_seqs_.empty() && sender_.queued() == 0 && !(tick_.time_s <= end_s)) return;
  // Acks the consumer queued during the last drain reach the device now.
  for (const std::uint8_t seq : acked_seqs_) sender_.on_ack(seq);
  acked_seqs_.clear();
  // The lane was just drained: frames stalled on backpressure retry.
  sender_.notify_tx_space();
  for (;;) {
    const sim::Deadline retransmit = sender_.next_deadline();
    const bool tick_next = tick_ < retransmit;
    const sim::Deadline next = tick_next ? tick_ : retransmit;
    if (!(next.time_s <= end_s)) break;  // "never" is +inf
    clock_.advance_to(util::Seconds{next.time_s});
    if (tick_next) {
      telemetry_tick();
    } else {
      sender_.expire(next.order);
    }
  }
  // Even with nothing due, the device observed time end_s.
  if (clock_.now().value < end_s) clock_.advance_to(util::Seconds{end_s});
}

}  // namespace distscroll::host
