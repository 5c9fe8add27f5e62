#include "wireless/link_stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "wireless/arq.h"
#include "wireless/host_logger.h"
#include "wireless/rf_link.h"

namespace distscroll::wireless {

// --- LinkStats --------------------------------------------------------------

void LinkStats::sample(const RfLink* link, const FrameDecoder* decoder, const ArqSender* sender,
                       const ArqReceiver* receiver, const HostLogger* logger) {
  if (link) {
    counters_.bytes_sent = link->bytes_sent();
    counters_.bytes_lost = link->bytes_lost();
    counters_.bytes_corrupted = link->bytes_corrupted();
  }
  if (decoder) {
    counters_.frames_decoded = decoder->frames_decoded();
    counters_.crc_errors = decoder->crc_errors();
    counters_.framing_errors = decoder->framing_errors();
    counters_.resyncs = decoder->resyncs();
  }
  if (sender) {
    counters_.arq_accepted = sender->frames_accepted();
    counters_.arq_transmissions = sender->transmissions();
    counters_.arq_retransmissions = sender->retransmissions();
    counters_.arq_acks = sender->acks_received();
    counters_.arq_drops_queue_full = sender->drops_queue_full();
    counters_.arq_drops_retry_exhausted = sender->drops_retry_exhausted();
  }
  if (receiver) {
    counters_.delivered = receiver->frames_delivered();
    counters_.duplicates_discarded = receiver->duplicates_discarded();
    counters_.acks_sent = receiver->acks_sent();
  }
  if (logger) {
    counters_.logged_frames = logger->frames_received();
    counters_.sequence_gaps = logger->sequence_gaps();
  }
}

void LinkStats::record_delivery_latency(double seconds) {
  latencies_.push_back(seconds);
  latency_hist_.record(seconds);
}

void LinkStats::record_attempts(int transmissions) {
  attempts_.push_back(static_cast<double>(transmissions));
}

double LinkStats::latency_percentile(double p) const {
  if (latencies_.empty()) return 0.0;
  return util::percentile(latencies_, p);
}

double LinkStats::mean_attempts() const {
  if (attempts_.empty()) return 0.0;
  return util::summarize(attempts_).mean;
}

std::string LinkStats::report() const {
  char line[256];
  std::string out;
  std::snprintf(line, sizeof(line), "link:    sent=%llu lost=%llu corrupted=%llu\n",
                static_cast<unsigned long long>(counters_.bytes_sent),
                static_cast<unsigned long long>(counters_.bytes_lost),
                static_cast<unsigned long long>(counters_.bytes_corrupted));
  out += line;
  std::snprintf(line, sizeof(line),
                "decoder: frames=%llu crc_err=%llu framing_err=%llu resyncs=%llu\n",
                static_cast<unsigned long long>(counters_.frames_decoded),
                static_cast<unsigned long long>(counters_.crc_errors),
                static_cast<unsigned long long>(counters_.framing_errors),
                static_cast<unsigned long long>(counters_.resyncs));
  out += line;
  std::snprintf(line, sizeof(line),
                "arq tx:  accepted=%llu transmissions=%llu retransmissions=%llu acks=%llu\n"
                "         drops(queue_full)=%llu drops(retry_exhausted)=%llu\n",
                static_cast<unsigned long long>(counters_.arq_accepted),
                static_cast<unsigned long long>(counters_.arq_transmissions),
                static_cast<unsigned long long>(counters_.arq_retransmissions),
                static_cast<unsigned long long>(counters_.arq_acks),
                static_cast<unsigned long long>(counters_.arq_drops_queue_full),
                static_cast<unsigned long long>(counters_.arq_drops_retry_exhausted));
  out += line;
  std::snprintf(line, sizeof(line), "arq rx:  delivered=%llu duplicates=%llu acks_sent=%llu\n",
                static_cast<unsigned long long>(counters_.delivered),
                static_cast<unsigned long long>(counters_.duplicates_discarded),
                static_cast<unsigned long long>(counters_.acks_sent));
  out += line;
  std::snprintf(line, sizeof(line), "logger:  frames=%llu seq_gaps=%llu\n",
                static_cast<unsigned long long>(counters_.logged_frames),
                static_cast<unsigned long long>(counters_.sequence_gaps));
  out += line;
  if (!latencies_.empty()) {
    std::snprintf(line, sizeof(line), "latency: n=%zu p50=%.2f ms p99=%.2f ms max=%.2f ms\n",
                  latencies_.size(), latency_percentile(0.50) * 1e3,
                  latency_percentile(0.99) * 1e3, latency_summary().max * 1e3);
    out += line;
    out += latency_hist_.render();
  }
  return out;
}

}  // namespace distscroll::wireless
