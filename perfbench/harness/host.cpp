// host_ingest and host_overload: host::run_host_ingest over two fleets.
//
//   host_ingest    2000 devices, 8 lanes x 512 slots, loss 1%, bit-flip
//                  0.2%, reorder 0.5%, ack-loss 0.5%, verify on, a
//                  1-second telemetry horizon: every host layer runs with
//                  ample capacity (CRC rejects, retransmits, reordered
//                  admits, no shedding).
//   host_overload  10 000 devices at the host_ingest CLI defaults (8
//                  lanes x 256 slots, 1 s horizon, 2 s grace, no
//                  faults): lanes fill every window, ARQ queues shed and
//                  the grace period runs out.
//
// The traced pass re-composes the window loop of run_host_ingest from
// the public host and wireless classes (SimDeviceLink::step_window,
// IngestQueue::pop_batch, parse_wire_frame, DeviceRegistry::admit,
// TelemetrySource::report_at, ColumnarWriter::append), times the calls
// — one frame in kFrameSampleEvery per-frame — and byte-compares its
// DSTL container with the untraced run_host_ingest output.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "harness.h"
#include "host/columnar.h"
#include "host/device_registry.h"
#include "host/host_pipeline.h"
#include "host/ingest_queue.h"
#include "host/sim_link.h"
#include "obs/metrics.h"
#include "sim/thread_pool.h"
#include "wireless/packet.h"

namespace perfbench {
namespace {

using namespace distscroll;

/// Traced pass: one frame in this many has its per-frame calls timed.
constexpr std::uint64_t kFrameSampleEvery = 8;
/// Set-ups of the T-thread re-composed pass behind host.drain.serial_share.
constexpr int kSerialSharePasses = 3;

/// Chained timer over one frame's calls: each lap() closes the previous
/// interval, so a sampled frame costs one clock read per call.
class FrameLaps {
 public:
  explicit FrameLaps(double bias_ns) : bias_ns_(bias_ns) {}
  void start(bool sampled) {
    on_ = sampled;
    if (on_) prev_ = now_ns();
  }
  void lap(Meter& meter) {
    ++meter.calls;
    if (!on_) return;
    const std::int64_t t = now_ns();
    meter.add(prev_, t, bias_ns_);
    prev_ = t;
  }

 private:
  double bias_ns_;
  bool on_ = false;
  std::int64_t prev_ = 0;
};

/// What a FrameLaps lap reads for an empty call, measured in place. The
/// median, so that a preemption during calibration does not skew it.
double frame_laps_bias_ns() {
  FrameLaps laps(0.0);
  laps.start(true);
  std::vector<double> reads(20001);
  for (double& read : reads) {
    Meter meter;
    asm volatile("" ::: "memory");
    laps.lap(meter);
    read = meter.busy_s * 1e9;
  }
  return median(std::move(reads));
}

/// What one re-composed pass saw besides its layer meters.
struct Recomposed {
  std::vector<std::uint8_t> dstl;
  host::HostIngestStats stats;
  /// Reports still queued device-side and never accepted when the grace
  /// period ended.
  std::uint64_t stranded = 0;
  double wall_s = 0.0;
  double drain_s = 0.0;
};

class Host final : public Workload {
 public:
  Host(const Options& options, bool overload)
      : options_(options),
        overload_(overload),
        bias_ns_(options.trace ? frame_laps_bias_ns() : 0.0) {}

  [[nodiscard]] const char* op_name() const override { return "reports"; }
  [[nodiscard]] std::string input_summary() const override {
    const auto c = config(1);
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "%zu devices x %.0f s at %.0f Hz, %zu lanes x %zu slots, faults %s; "
                  "operation = offered report",
                  c.devices, c.duration_s, c.report_hz, c.lanes, c.lane_capacity,
                  overload_ ? "off" : "on");
    return buf;
  }

  void setup(std::uint64_t seed) override { seed_ = seed; }

  void warm_up() override {
    obs::MetricsRegistry metrics;
    const auto reference = host::run_host_ingest(config(options_.threads), &metrics);
    reference_dstl_ = reference.dstl;
    reference_metrics_ = metrics.to_json_fields();
    reference_stats_ = reference.stats;
    per_device_accepted_.assign(config(1).devices, 0);
    for (const host::CompactRecord& r : reference.records) ++per_device_accepted_[r.device_id];
    (void)check(reference.stats, options_.threads);
  }

  PassResult pass(std::size_t threads) override {
    obs::MetricsRegistry metrics;
    const double t0 = now_s();
    const auto result = host::run_host_ingest(config(threads), &metrics);
    PassResult r;
    r.wall_s = now_s() - t0;
    r.attempted = result.stats.reports_offered;
    const bool ok = check(result.stats, threads);
    if (result.dstl != reference_dstl_ || metrics.to_json_fields() != reference_metrics_) {
      fail("%s: DSTL or metrics at %zu threads differ from the reference", name(), threads);
    } else if (ok) {
      r.ops = result.stats.frames_accepted;
      return r;
    }
    r.failed = r.attempted;
    return r;
  }

  PassResult traced_pass(LayerTrace& trace) override {
    const Recomposed rc = recompose(1, &trace);
    PassResult r;
    r.wall_s = rc.wall_s;
    r.attempted = rc.stats.reports_offered;
    if (!verify_recomposed(rc)) {
      r.failed = r.attempted;
    } else {
      r.ops = rc.stats.frames_accepted;
    }
    return r;
  }

  void finish_trace(LayerTrace& trace) override {
    std::vector<double> shares;
    for (int i = 0; i < kSerialSharePasses; ++i) {
      const Recomposed rc = recompose(options_.threads, nullptr);
      (void)verify_recomposed(rc);
      shares.push_back(rc.drain_s / rc.wall_s);
    }
    const host::HostIngestStats& s = reference_stats_;
    trace.set("host.drain.serial_share", median(shares));
    trace.set("host.queue.max_depth", static_cast<double>(s.max_queue_depth));
    trace.set("host.reports_shed", static_cast<double>(s.reports_shed));
    trace.set("host.reports_undelivered", static_cast<double>(undelivered(s)));
    trace.set("host.devices_never_admitted", static_cast<double>(config(1).devices - s.devices_seen));
    trace.set("host.fairness_jain", jain(per_device_accepted_));
    trace.set("wireless.crc_rejected", static_cast<double>(s.frames_crc_rejected));
    trace.set("wireless.arq.retransmissions", static_cast<double>(s.arq_retransmissions));
    trace.set("wireless.arq.useful_ratio",
              static_cast<double>(s.frames_accepted) / static_cast<double>(s.arq_transmissions));
    trace.set("trace.sample_rate", 1.0 / static_cast<double>(kFrameSampleEvery));
  }

  [[nodiscard]] std::uint64_t digest() const override {
    Digest d;
    d.bytes(reference_dstl_.data(), reference_dstl_.size());
    d.bytes(reference_metrics_.data(), reference_metrics_.size());
    return d.hash();
  }

  void print_extra(const std::string& tag) const override {
    const host::HostIngestStats& s = reference_stats_;
    std::printf("%s per pass: %" PRIu64 " reports offered, %" PRIu64 " accepted, %" PRIu64
                " shed, %" PRIu64 " retry-dropped, %" PRIu64
                " undelivered at grace end (%.2f%% of offered), %" PRIu64
                " devices never admitted, %s\n",
                tag.c_str(), s.reports_offered, s.frames_accepted, s.reports_shed,
                s.arq_drops_retry_exhausted, undelivered(s),
                100.0 * static_cast<double>(s.reports_offered - s.frames_accepted) /
                    static_cast<double>(s.reports_offered),
                config(1).devices - s.devices_seen, s.complete ? "drained" : "grace exhausted");
  }

 private:
  [[nodiscard]] const char* name() const { return overload_ ? "host_overload" : "host_ingest"; }

  [[nodiscard]] host::HostIngestConfig config(std::size_t threads) const {
    host::HostIngestConfig c;
    c.lanes = 8;
    if (overload_) {
      c.devices = 10000;  // lane_capacity, duration and grace stay at defaults
    } else {
      c.devices = 2000;
      c.lane_capacity = 512;
      c.duration_s = 1.0;
      c.faults.frame_loss = 0.01;
      c.faults.bit_flip = 0.002;
      c.faults.reorder = 0.005;
      c.faults.ack_loss = 0.005;
      c.session_id = 7;
    }
    c.base_seed = seed_;
    c.threads = threads;
    c.verify_content = true;
    return c;
  }

  /// Reports neither accepted, shed nor dropped after retry exhaustion:
  /// still queued device-side when the grace period ran out.
  static std::uint64_t undelivered(const host::HostIngestStats& s) {
    const std::uint64_t settled = s.frames_accepted + s.reports_shed + s.arq_drops_retry_exhausted;
    return settled <= s.reports_offered ? s.reports_offered - settled : 0;
  }

  static double jain(const std::vector<std::uint64_t>& x) {
    double sum = 0.0, sum_sq = 0.0;
    for (const std::uint64_t v : x) {
      sum += static_cast<double>(v);
      sum_sq += static_cast<double>(v) * static_cast<double>(v);
    }
    return sum_sq > 0.0 ? sum * sum / (static_cast<double>(x.size()) * sum_sq) : 0.0;
  }

  /// Content verify clean, ledger exact, and the healthy fleet drained.
  bool check(const host::HostIngestStats& s, std::size_t threads) {
    bool ok = true;
    if (s.content_mismatches != 0 || s.frames_malformed != 0) {
      fail("%s: %" PRIu64 " content mismatches, %" PRIu64 " malformed frames at %zu threads",
           name(), s.content_mismatches, s.frames_malformed, threads);
      ok = false;
    }
    if (s.frames_accepted + s.reports_shed + s.arq_drops_retry_exhausted > s.reports_offered ||
        (s.complete && undelivered(s) != 0)) {
      fail("%s: ledger broken at %zu threads: accepted %" PRIu64 " + shed %" PRIu64
           " + retry-dropped %" PRIu64 " vs offered %" PRIu64 " (%s)",
           name(), threads, s.frames_accepted, s.reports_shed, s.arq_drops_retry_exhausted,
           s.reports_offered, s.complete ? "drained" : "grace exhausted");
      ok = false;
    }
    if (!overload_ && !s.complete) {
      fail("host_ingest: the healthy fleet did not drain at %zu threads", threads);
      ok = false;
    }
    return ok;
  }

  /// The re-composed pass must reproduce run_host_ingest's bytes and
  /// counters, and its explicit ledger must close: accepted + shed +
  /// retry-dropped + stranded == offered.
  bool verify_recomposed(const Recomposed& rc) {
    const host::HostIngestStats& s = rc.stats;
    const host::HostIngestStats& ref = reference_stats_;
    bool ok = rc.dstl == reference_dstl_;
    if (!ok) fail("%s: re-composed window loop's DSTL differs from run_host_ingest", name());
    if (s.frames_accepted != ref.frames_accepted || s.reports_shed != ref.reports_shed ||
        s.reports_offered != ref.reports_offered || s.windows != ref.windows ||
        s.max_queue_depth != ref.max_queue_depth || s.complete != ref.complete) {
      fail("%s: re-composed window loop's counters differ from run_host_ingest", name());
      ok = false;
    }
    if (s.frames_accepted + s.reports_shed + s.arq_drops_retry_exhausted + rc.stranded !=
        s.reports_offered) {
      fail("%s: ledger does not close: accepted %" PRIu64 " + shed %" PRIu64
           " + retry-dropped %" PRIu64 " + stranded %" PRIu64 " != offered %" PRIu64,
           name(), s.frames_accepted, s.reports_shed, s.arq_drops_retry_exhausted, rc.stranded,
           s.reports_offered);
      ok = false;
    }
    return ok;
  }

  /// run_host_ingest's window loop, call for call, from the public
  /// classes. With `trace` set (1 thread) the calls are timed into it;
  /// without, only the phase walls are taken.
  Recomposed recompose(std::size_t threads, LayerTrace* trace) {
    const host::HostIngestConfig config = this->config(threads);
    Meter construct, step, ack, pop, parse, unpack, admit, verify, append, finish;
    FrameLaps laps(bias_ns_);
    std::uint64_t frame_index = 0;
    std::uint64_t window_accepted = 0;  // frames appended in the current window
    Recomposed out;

    const double t_begin = now_s();
    const std::size_t lanes = std::max<std::size_t>(1, config.lanes);
    const std::size_t batch = std::max<std::size_t>(1, config.batch);
    host::IngestQueue queue(lanes, config.lane_capacity);
    host::DeviceRegistry registry(config.devices);
    host::ColumnarWriter writer(config.session_id);
    std::vector<host::CompactRecord> records;

    const std::int64_t c0 = now_ns();
    const double period_s = 1.0 / config.report_hz;
    sim::Rng fleet_rng(config.base_seed);
    std::vector<std::unique_ptr<host::SimDeviceLink>> links;
    links.reserve(config.devices);
    std::vector<std::vector<std::size_t>> lane_members(lanes);
    for (std::size_t d = 0; d < config.devices; ++d) {
      const std::size_t lane = d * lanes / config.devices;
      links.push_back(std::make_unique<host::SimDeviceLink>(
          static_cast<std::uint16_t>(d), lane, queue, config.arq, config.faults, period_s,
          config.duration_s, fleet_rng.fork(d)));
      lane_members[lane].push_back(d);
    }
    construct.add(c0, now_ns(), bias_ns_);

    sim::ThreadPool pool(config.threads);
    host::HostIngestStats& stats = out.stats;
    std::vector<host::RawRecord> drained(batch);
    const double run_end_s = config.duration_s + config.drain_grace_s;
    for (std::size_t w = 1;; ++w) {
      double end_s = static_cast<double>(w) * config.window_s;
      const bool last_window = end_s >= run_end_s;
      if (last_window) end_s = run_end_s;

      const std::int64_t p0 = now_ns();
      pool.parallel_for(lanes, [&](std::size_t lane) {
        for (const std::size_t d : lane_members[lane]) links[d]->step_window(end_s);
      });
      step.add(p0, now_ns(), bias_ns_, config.devices);
      step.calls += config.devices;
      stats.max_queue_depth = std::max(stats.max_queue_depth, queue.depth());

      const std::int64_t d0 = now_ns();
      window_accepted = 0;
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        for (;;) {
          const bool time_pop = trace != nullptr;
          const std::int64_t q0 = time_pop ? now_ns() : 0;
          const std::size_t n = queue.pop_batch(lane, drained);
          if (time_pop) pop.add(q0, now_ns(), bias_ns_);
          ++pop.calls;
          if (n == 0) break;
          for (std::size_t i = 0; i < n; ++i) {
            const host::RawRecord& raw = drained[i];
            ++stats.frames_drained;
            laps.start(trace != nullptr && frame_index++ % kFrameSampleEvery == 0);
            const auto view = wireless::parse_wire_frame({raw.wire.data(), raw.len});
            laps.lap(parse);
            if (!view) {
              ++stats.frames_crc_rejected;
              continue;
            }
            host::SimDeviceLink& link = *links[raw.device_id];
            link.queue_ack(view->seq);
            laps.lap(ack);
            const host::DeviceRegistry::Decision decision = registry.admit(raw.device_id, view->seq);
            laps.lap(admit);
            if (decision.verdict == host::DeviceRegistry::Verdict::Duplicate ||
                decision.verdict == host::DeviceRegistry::Verdict::TooOld) {
              continue;
            }
            const auto report = wireless::StateReport::unpack(view->payload);
            laps.lap(unpack);
            if (view->type != wireless::FrameType::State || !report) {
              ++stats.frames_malformed;
              continue;
            }
            if (config.verify_content) {
              const std::uint64_t index = link.index_for_seq(view->seq);
              const bool same = link.source().report_at(index) == *report;
              laps.lap(verify);
              if (!same) {
                ++stats.content_mismatches;
                continue;
              }
            }
            host::CompactRecord record;
            record.t_us = raw.t_us;
            record.device_id = raw.device_id;
            record.seq = view->seq;
            record.state = *report;
            writer.append(record);
            records.push_back(record);
            laps.lap(append);
            ++window_accepted;
          }
        }
      }
      out.drain_s += static_cast<double>(now_ns() - d0) * 1e-9;

      stats.windows = w;
      if (end_s >= config.duration_s) {
        bool pending = false;
        for (const auto& link : links) {
          if (link->pending() > 0) {
            pending = true;
            break;
          }
        }
        if (!pending) {
          stats.complete = true;
          break;
        }
      }
      if (last_window) break;
    }

    std::uint64_t pending = 0;
    for (const auto& link : links) {
      stats.reports_offered += link->reports_offered();
      stats.reports_shed += link->reports_shed();
      stats.arq_transmissions += link->sender().transmissions();
      stats.arq_drops_retry_exhausted += link->sender().drops_retry_exhausted();
      pending += link->pending();
    }
    // The acks for frames the final window accepted are queued but never
    // consumed (no window follows), so those frames are still pending
    // device-side although the host holds them.
    out.stranded = stats.complete || pending < window_accepted ? pending : pending - window_accepted;
    stats.frames_accepted = registry.accepted();
    stats.devices_seen = registry.devices_seen();

    const std::int64_t f0 = now_ns();
    out.dstl = writer.finish();
    finish.add(f0, now_ns(), bias_ns_);
    out.wall_s = now_s() - t_begin;

    if (trace != nullptr) {
      trace->add("host.link.construct_s", construct.busy_s);
      trace->add("host.link.step_window.busy_s", step.estimate());
      trace->add("host.link.step_window.calls", static_cast<double>(step.calls));
      trace->add("host.link.queue_ack.busy_s", ack.estimate());
      trace->add("host.queue.pop_batch.busy_s", pop.estimate());
      trace->add("host.queue.pop_batch.calls", static_cast<double>(pop.calls));
      trace->add("wireless.parse.busy_s", parse.estimate() + unpack.estimate());
      trace->add("wireless.parse.calls", static_cast<double>(parse.calls));
      trace->add("host.registry.admit.busy_s", admit.estimate());
      trace->add("host.registry.admit.calls", static_cast<double>(admit.calls));
      trace->add("host.verify.busy_s", verify.estimate());
      trace->add("host.verify.calls", static_cast<double>(verify.calls));
      trace->add("host.columnar.append.busy_s", append.estimate());
      trace->add("host.columnar.append.calls", static_cast<double>(append.calls));
      trace->add("host.columnar.finish_s", finish.busy_s);
    }
    return out;
  }

  Options options_;
  bool overload_;
  double bias_ns_;
  std::uint64_t seed_ = 0;
  std::vector<std::uint8_t> reference_dstl_;
  std::string reference_metrics_;
  host::HostIngestStats reference_stats_;
  std::vector<std::uint64_t> per_device_accepted_;
};

}  // namespace

std::unique_ptr<Workload> make_host(const Options& options, bool overload) {
  return std::make_unique<Host>(options, overload);
}

}  // namespace perfbench
