// Telemetry-link experiment: how reliable is the study's logging path?
//
// The research prototype streams state frames to the PC over a lossy RF
// link (Section 3.2's "wirelessly linked to a PC"). The study harness
// depends on that stream; this bench sweeps byte-loss and bit-flip
// rates over two pipelines:
//
//   raw : device firmware → UART → RfLink → FrameDecoder/HostLogger
//         (CRC rejects corruption, sequence numbers surface the loss)
//   arq : state source → EventArqSender → UART → RfLink → ArqReceiver
//         with a lossy reverse ack channel — the reliable transport
//
// and reports delivered-frame ratio, CRC rejections, sequence gaps,
// retransmit counts and delivery-latency percentiles (util::stats),
// read from the counters each link component keeps.
#include <array>
#include <cmath>
#include <cstdio>
#include <functional>
#include <vector>

#include "core/distscroll_device.h"
#include "menu/menu_builder.h"
#include "obs/metrics.h"
#include "study/report.h"
#include "util/csv.h"
#include "util/stats.h"
#include "wireless/arq.h"
#include "wireless/host_logger.h"
#include "wireless/rf_link.h"

using namespace distscroll;

namespace {

constexpr double kRunSeconds = 60.0;
constexpr double kFramePeriod = 0.040;  // 25 state frames/s

struct RawResult {
  double delivered_ratio;
  std::uint64_t crc_errors;
  std::uint64_t gaps;
};

RawResult run_raw_link(double byte_loss, double bit_flip, std::uint64_t seed) {
  auto menu_root = menu::make_flat_menu(8);
  sim::EventQueue queue;
  core::DistScrollDevice::Config config;
  core::DistScrollDevice device(config, *menu_root, queue, sim::Rng(seed));
  // A moving hand so the frames carry changing state.
  device.set_distance_provider([](util::Seconds now) {
    return util::Centimeters{17.0 + 8.0 * std::sin(now.value * 0.7)};
  });
  device.power_on();

  wireless::RfLink::Config link_config;
  link_config.byte_loss_probability = byte_loss;
  link_config.bit_flip_probability = bit_flip;
  wireless::RfLink link(link_config, device.board().uart(), queue, sim::Rng(seed + 1));
  wireless::HostLogger logger;
  link.set_host_sink([&](std::uint8_t b) { logger.on_byte(b); });
  link.start();

  queue.run_until(util::Seconds{kRunSeconds});

  // Frames sent: one per telemetry interval (2 firmware ticks = 40 ms).
  const double sent = kRunSeconds / kFramePeriod;
  return {static_cast<double>(logger.frames_received()) / sent, logger.crc_errors(),
          logger.sequence_gaps()};
}

struct ArqResult {
  std::uint64_t offered;
  double delivered_ratio;
  std::uint64_t retransmissions;
  std::uint64_t drops;
  double p50_ms;
  double p99_ms;
  double mean_attempts;
  std::string report;
};

/// p in [0, 1]; 0 when nothing was recorded.
double percentile_or_zero(const std::vector<double>& values, double p) {
  return values.empty() ? 0.0 : util::percentile(values, p);
}

/// The counters of every component on the ARQ path, then the delivery
/// latencies: percentiles and the log-bucketed histogram.
std::string link_report(const wireless::RfLink& link, const wireless::ArqReceiver& receiver,
                        const wireless::ArqSender& sender, const wireless::HostLogger& logger,
                        const std::vector<double>& latencies, const obs::Histogram& latency_hist) {
  const wireless::FrameDecoder& decoder = receiver.decoder();
  const auto n = [](std::uint64_t v) { return static_cast<unsigned long long>(v); };
  char line[256];
  std::string out;
  std::snprintf(line, sizeof(line), "link:    sent=%llu lost=%llu corrupted=%llu\n",
                n(link.bytes_sent()), n(link.bytes_lost()), n(link.bytes_corrupted()));
  out += line;
  std::snprintf(line, sizeof(line),
                "decoder: frames=%llu crc_err=%llu framing_err=%llu resyncs=%llu\n",
                n(decoder.frames_decoded()), n(decoder.crc_errors()), n(decoder.framing_errors()),
                n(decoder.resyncs()));
  out += line;
  std::snprintf(line, sizeof(line),
                "arq tx:  accepted=%llu transmissions=%llu retransmissions=%llu acks=%llu\n"
                "         drops(queue_full)=%llu drops(retry_exhausted)=%llu\n",
                n(sender.frames_accepted()), n(sender.transmissions()),
                n(sender.retransmissions()), n(sender.acks_received()),
                n(sender.drops_queue_full()), n(sender.drops_retry_exhausted()));
  out += line;
  std::snprintf(line, sizeof(line), "arq rx:  delivered=%llu duplicates=%llu acks_sent=%llu\n",
                n(receiver.frames_delivered()), n(receiver.duplicates_discarded()),
                n(receiver.acks_sent()));
  out += line;
  std::snprintf(line, sizeof(line), "logger:  frames=%llu seq_gaps=%llu\n",
                n(logger.frames_received()), n(logger.sequence_gaps()));
  out += line;
  if (!latencies.empty()) {
    std::snprintf(line, sizeof(line), "latency: n=%zu p50=%.2f ms p99=%.2f ms max=%.2f ms\n",
                  latencies.size(), util::percentile(latencies, 0.50) * 1e3,
                  util::percentile(latencies, 0.99) * 1e3, util::summarize(latencies).max * 1e3);
    out += line;
    out += latency_hist.render();
  }
  return out;
}

ArqResult run_arq_link(double byte_loss, double bit_flip, std::uint64_t seed) {
  sim::EventQueue queue;
  hw::Uart device_uart;
  hw::Uart host_uart;

  wireless::RfLink::Config link_config;
  link_config.byte_loss_probability = byte_loss;
  link_config.bit_flip_probability = bit_flip;
  wireless::RfLink forward(link_config, device_uart, queue, sim::Rng(seed));
  wireless::RfLink reverse(link_config, host_uart, queue, sim::Rng(seed + 1));

  wireless::EventArqSender arq(wireless::ArqConfig{}, queue);
  wireless::ArqReceiver receiver;
  wireless::HostLogger logger;
  std::vector<double> latencies;
  std::vector<double> attempts;
  obs::Histogram latency_hist;

  const auto to_device_uart = [&](std::span<const std::uint8_t> wire) {
    if (device_uart.tx_free() < wire.size()) return false;
    for (std::uint8_t b : wire) device_uart.transmit(b);
    return true;
  };
  arq.set_wire_sink(to_device_uart);
  device_uart.set_tx_space_callback([&] { arq.notify_tx_space(); });
  forward.set_host_sink([&](std::uint8_t b) { receiver.on_byte(b); });
  const auto to_host_uart = [&](std::span<const std::uint8_t> wire) {
    if (host_uart.tx_free() < wire.size()) return false;
    for (std::uint8_t b : wire) host_uart.transmit(b);
    return true;
  };
  receiver.set_ack_sink(to_host_uart);
  reverse.set_host_sink([&](std::uint8_t b) { arq.on_ack_byte(b); });
  receiver.set_frame_sink([&](const wireless::FrameView& frame) {
    // Delivery latency: first enqueue at the device to arrival here.
    if (const auto t0 = arq.sender().enqueue_time_s(frame.seq)) {
      const double latency = queue.now().value - *t0;
      latencies.push_back(latency);
      latency_hist.record(latency);
    }
    logger.on_frame(frame);
  });
  arq.set_ack_callback(
      [&](std::uint8_t, double, int n) { attempts.push_back(static_cast<double>(n)); });
  forward.start();
  reverse.start();

  // The same moving-hand state stream at 25 Hz, now through the ARQ layer.
  std::uint64_t offered = 0;
  std::function<void()> tick = [&] {
    const double now = queue.now().value;
    if (now >= kRunSeconds) return;
    wireless::StateReport report;
    report.adc_counts = static_cast<std::uint16_t>(512.0 + 400.0 * std::sin(now * 0.7));
    report.cursor_index = static_cast<std::uint8_t>(offered % 8);
    report.level_size = 8;
    std::array<std::uint8_t, wireless::StateReport::kPackedSize> payload{};
    report.pack_into(payload);
    arq.send(wireless::FrameType::State, payload);
    ++offered;
    queue.schedule_after(util::Seconds{kFramePeriod}, tick);
  };
  queue.schedule_after(util::Seconds{kFramePeriod}, tick);
  // Run past the last send so in-flight retransmits drain.
  queue.run_until(util::Seconds{kRunSeconds + 5.0});

  const wireless::ArqSender& sender = arq.sender();
  return {offered,
          offered ? static_cast<double>(receiver.frames_delivered()) / static_cast<double>(offered)
                  : 0.0,
          sender.retransmissions(),
          sender.drops_queue_full() + sender.drops_retry_exhausted(),
          percentile_or_zero(latencies, 0.50) * 1e3,
          percentile_or_zero(latencies, 0.99) * 1e3,
          attempts.empty() ? 0.0 : util::summarize(attempts).mean,
          link_report(forward, receiver, sender, logger, latencies, latency_hist)};
}

}  // namespace

int main() {
  struct Case {
    double loss, flip;
  };
  const Case cases[] = {Case{0.0, 0.0},    Case{0.002, 0.0005}, Case{0.01, 0.001},
                        Case{0.01, 0.002}, Case{0.05, 0.01},    Case{0.15, 0.03}};

  util::CsvWriter csv("exp_wireless_link.csv",
                      {"pipeline", "byte_loss", "bit_flip", "delivered_ratio", "crc_errors",
                       "gaps", "retransmissions", "drops", "latency_p50_ms", "latency_p99_ms"});

  std::printf("=== Telemetry link robustness (60 s of streaming, 25 frames/s) ===\n\n");
  std::printf("--- raw pipeline: CRC rejection only, losses visible as gaps ---\n");
  study::Table raw_table({"byte loss", "bit flips", "frames delivered", "CRC rejects", "seq gaps"});
  for (const auto c : cases) {
    const auto stats = run_raw_link(c.loss, c.flip, 0xF00D);
    raw_table.add_row({study::fmt(c.loss * 100, 1) + "%", study::fmt(c.flip * 100, 2) + "%",
                       study::fmt(stats.delivered_ratio * 100, 1) + "%",
                       std::to_string(stats.crc_errors), std::to_string(stats.gaps)});
    csv.row({0.0, c.loss, c.flip, stats.delivered_ratio, static_cast<double>(stats.crc_errors),
             static_cast<double>(stats.gaps), 0.0, 0.0, 0.0, 0.0});
  }
  std::printf("%s\n", raw_table.render().c_str());

  std::printf("--- ARQ pipeline: ack/retransmit with backoff, lossy ack channel ---\n");
  study::Table arq_table({"byte loss", "bit flips", "frames delivered", "retransmits", "drops",
                          "mean tx/frame", "p50 ms", "p99 ms"});
  std::string worst_case_report;
  for (const auto c : cases) {
    const auto r = run_arq_link(c.loss, c.flip, 0xBEEF);
    arq_table.add_row({study::fmt(c.loss * 100, 1) + "%", study::fmt(c.flip * 100, 2) + "%",
                       study::fmt(r.delivered_ratio * 100, 2) + "%",
                       std::to_string(r.retransmissions), std::to_string(r.drops),
                       study::fmt(r.mean_attempts, 2), study::fmt(r.p50_ms, 2),
                       study::fmt(r.p99_ms, 2)});
    csv.row({1.0, c.loss, c.flip, r.delivered_ratio, 0.0, 0.0,
             static_cast<double>(r.retransmissions), static_cast<double>(r.drops), r.p50_ms,
             r.p99_ms});
    if (c.loss == 0.01 && c.flip == 0.001) worst_case_report = r.report;
  }
  std::printf("%s\n", arq_table.render().c_str());

  std::printf("Link counters at the acceptance point (1%% byte loss, 0.1%% bit flips):\n%s\n",
              worst_case_report.c_str());
  std::printf("shape: the raw pipeline degrades with loss (corrupted frames are\n"
              "ALWAYS rejected by CRC, never delivered wrong; sequence numbers\n"
              "make the loss visible), while the ARQ layer holds delivery near\n"
              "100%% by paying retransmissions and tail latency instead.\n");
  std::printf("wrote exp_wireless_link.csv\n");
  return 0;
}
