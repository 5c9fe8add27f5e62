// Link observability: one place that answers "how is the telemetry path
// doing?" for benches, tests and the study harness.
//
// Counters are *sampled* from the components that own them (RfLink,
// FrameDecoder, the ARQ endpoints, HostLogger) — the hot paths pay
// nothing for observability beyond the counters they already keep.
// Latency and retransmit distributions are *recorded* by whoever sees
// the event (the ARQ ack callback, the bench's delivery probe) and
// summarised through util::stats percentiles plus a log-bucketed ASCII
// histogram for the bench output.
//
// The delivery-latency histogram is an obs::Histogram with the default
// (0.5 ms log₂, ms display) config — bucket math and rendering
// byte-identical to the LatencyHistogram class this replaced.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/stats.h"

namespace distscroll::wireless {

class RfLink;
class FrameDecoder;
class ArqSender;
class ArqReceiver;
class HostLogger;

class LinkStats {
 public:
  /// Counter snapshot across the pipeline; zeros for absent components.
  struct Counters {
    // RfLink
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_lost = 0;
    std::uint64_t bytes_corrupted = 0;
    // FrameDecoder (host side)
    std::uint64_t frames_decoded = 0;
    std::uint64_t crc_errors = 0;
    std::uint64_t framing_errors = 0;
    std::uint64_t resyncs = 0;
    // ArqSender
    std::uint64_t arq_accepted = 0;
    std::uint64_t arq_transmissions = 0;
    std::uint64_t arq_retransmissions = 0;
    std::uint64_t arq_acks = 0;
    std::uint64_t arq_drops_queue_full = 0;
    std::uint64_t arq_drops_retry_exhausted = 0;
    // ArqReceiver
    std::uint64_t delivered = 0;
    std::uint64_t duplicates_discarded = 0;
    std::uint64_t acks_sent = 0;
    // HostLogger
    std::uint64_t logged_frames = 0;
    std::uint64_t sequence_gaps = 0;
  };

  /// Pull current counter values from whichever components exist.
  void sample(const RfLink* link, const FrameDecoder* decoder, const ArqSender* sender,
              const ArqReceiver* receiver, const HostLogger* logger);

  [[nodiscard]] const Counters& counters() const { return counters_; }

  // --- distributions ---------------------------------------------------
  void record_delivery_latency(double seconds);
  void record_attempts(int transmissions);

  /// p in [0, 1]; 0 when nothing was recorded.
  [[nodiscard]] double latency_percentile(double p) const;
  [[nodiscard]] util::Summary latency_summary() const { return util::summarize(latencies_); }
  [[nodiscard]] double mean_attempts() const;

  /// Human-readable dump (counters + latency histogram) for benches.
  [[nodiscard]] std::string report() const;

 private:
  Counters counters_{};
  std::vector<double> latencies_;
  std::vector<double> attempts_;
  obs::Histogram latency_hist_;
};

}  // namespace distscroll::wireless
