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
      sender_(arq, events_),
      source_(device_rng.fork(kSourceStream)),
      channel_rng_(device_rng.fork(kChannelStream)),
      ack_rng_(device_rng.fork(kAckStream)) {
  sender_.set_wire_sink([this](std::span<const std::uint8_t> wire) { return wire_sink(wire); });
  // Stagger device start phases across one report period so a 10k-device
  // fleet doesn't fire every tick at the same instant (which would be
  // both unrealistic and a worst-case burst into the lanes).
  sim::Rng phase = device_rng.fork(kPhaseStream);
  const double offset_s = phase.uniform01() * report_period_s_;
  events_.schedule_after(util::Seconds{offset_s}, [this] { telemetry_tick(); });
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
    seq_to_index_[seq] = index;
  } else {
    ++reports_shed_;  // ARQ queue full: device RAM budget says drop new
  }
  const double next_s = events_.now().value + report_period_s_;
  if (next_s <= duration_s_) {
    events_.schedule_after(util::Seconds{report_period_s_}, [this] { telemetry_tick(); });
  }
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
  record.t_us = static_cast<std::uint64_t>(std::llround(events_.now().value * 1e6));
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
  // Acks the consumer queued during the last drain reach the device now.
  for (const std::uint8_t seq : acked_seqs_) sender_.on_ack(seq);
  acked_seqs_.clear();
  // The lane was just drained: frames stalled on backpressure retry.
  sender_.notify_tx_space();
  events_.run_until(util::Seconds{end_s});
}

}  // namespace distscroll::host
