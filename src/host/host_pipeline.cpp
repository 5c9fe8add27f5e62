#include "host/host_pipeline.h"

#include <algorithm>
#include <optional>

#include "host/device_registry.h"
#include "sim/thread_pool.h"

namespace distscroll::host {

HostIngestResult run_host_ingest(const HostIngestConfig& config,
                                 obs::MetricsRegistry* metrics) {
  HostIngestResult result;
  if (config.devices == 0 || config.report_hz <= 0.0 || config.window_s <= 0.0) {
    result.dstl = ColumnarWriter(config.session_id).finish();
    result.stats.complete = true;
    return result;
  }
  const std::size_t lanes = std::max<std::size_t>(1, config.lanes);
  const std::size_t batch = std::max<std::size_t>(1, config.batch);

  IngestQueue queue(lanes, config.lane_capacity);
  DeviceRegistry registry(config.devices);
  ColumnarWriter writer(config.session_id);

  // Devices are sharded onto lanes contiguously and in id order; the
  // assignment depends only on (devices, lanes), never on threads. The
  // links live in one array in id order, so lane l steps the slice
  // [lane_begin(l), lane_begin(l + 1)): device d is on lane
  // floor(d * lanes / devices), so a lane starts at ceil(l * devices / lanes).
  const auto lane_begin = [&](std::size_t l) { return (l * config.devices + lanes - 1) / lanes; };
  const double period_s = 1.0 / config.report_hz;
  sim::Rng fleet_rng(config.base_seed);
  std::vector<std::optional<SimDeviceLink>> links(config.devices);
  for (std::size_t d = 0; d < config.devices; ++d) {
    links[d].emplace(static_cast<std::uint16_t>(d), d * lanes / config.devices, queue,
                     config.arq, config.faults, period_s, config.duration_s, fleet_rng.fork(d));
  }
  // No device offers more than floor(duration * hz) + 1 reports (its
  // first tick falls inside the first period), and every accepted frame
  // is an offered report.
  // The DSTL columns are sized from the same bound.
  const std::size_t max_records =
      config.devices * (static_cast<std::size_t>(config.duration_s * config.report_hz) + 1);
  result.records.reserve(max_records);
  writer.reserve(max_records);

  // Instruments are looked up once, outside the loop (registry contract).
  obs::Counter* m_accepted = nullptr;
  obs::Counter* m_crc = nullptr;
  obs::Counter* m_dup = nullptr;
  obs::Counter* m_too_old = nullptr;
  obs::Counter* m_reordered = nullptr;
  obs::Counter* m_gaps = nullptr;
  obs::Counter* m_shed = nullptr;
  obs::Counter* m_stalls = nullptr;
  obs::Counter* m_mismatch = nullptr;
  obs::Gauge* m_depth = nullptr;
  obs::Histogram* m_latency = nullptr;
  if (metrics != nullptr) {
    m_accepted = &metrics->counter("host_frames_accepted");
    m_crc = &metrics->counter("host_frames_dropped_crc");
    m_dup = &metrics->counter("host_frames_duplicate");
    m_too_old = &metrics->counter("host_frames_too_old");
    m_reordered = &metrics->counter("host_frames_reordered");
    m_gaps = &metrics->counter("host_sequence_gaps");
    m_shed = &metrics->counter("host_reports_shed");
    m_stalls = &metrics->counter("host_backpressure_stalls");
    m_mismatch = &metrics->counter("host_content_mismatches");
    m_depth = &metrics->gauge("host_queue_depth");
    m_latency = &metrics->histogram("host_ingest_latency");
  }

  sim::ThreadPool pool(config.threads);
  HostIngestStats& stats = result.stats;
  std::vector<RawRecord> drained(batch);

  const double run_end_s = config.duration_s + config.drain_grace_s;
  for (std::size_t w = 1;; ++w) {
    double end_s = static_cast<double>(w) * config.window_s;
    const bool last_window = end_s >= run_end_s;
    if (last_window) end_s = run_end_s;

    // Produce phase: each lane stepped by exactly one worker; devices
    // within a lane advance in id order.
    pool.parallel_for(lanes, [&](std::size_t lane) {
      for (std::size_t d = lane_begin(lane); d < lane_begin(lane + 1); ++d) {
        links[d]->step_window(end_s);
      }
    });

    const std::size_t depth = queue.depth();
    stats.max_queue_depth = std::max(stats.max_queue_depth, depth);
    if (m_depth != nullptr) m_depth->set(static_cast<double>(depth));

    // Drain phase: serial, ascending lane order — the fixed merge order.
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      for (;;) {
        const std::size_t n = queue.pop_batch(lane, drained);
        if (n == 0) break;
        for (std::size_t i = 0; i < n; ++i) {
          const RawRecord& raw = drained[i];
          ++stats.frames_drained;
          const auto view =
              wireless::parse_wire_frame({raw.wire.data(), raw.len});
          if (!view) {
            ++stats.frames_crc_rejected;  // no ack: the device will retry
            continue;
          }
          SimDeviceLink& link = *links[raw.device_id];
          // Ack every VALID frame, duplicates included — the previous
          // ack may itself have been lost (ArqReceiver's rule).
          link.queue_ack(view->seq);
          const DeviceRegistry::Decision decision = registry.admit(raw.device_id, view->seq);
          if (decision.verdict == DeviceRegistry::Verdict::Duplicate ||
              decision.verdict == DeviceRegistry::Verdict::TooOld) {
            continue;
          }
          const auto report = wireless::StateReport::unpack(view->payload);
          if (view->type != wireless::FrameType::State || !report) {
            ++stats.frames_malformed;
            continue;
          }
          if (config.verify_content) {
            const std::uint64_t index = link.index_for_seq(view->seq);
            if (!(link.source().report_at(index) == *report)) {
              ++stats.content_mismatches;
              continue;
            }
          }
          CompactRecord record;
          record.t_us = raw.t_us;
          record.device_id = raw.device_id;
          record.seq = view->seq;
          record.state = *report;
          writer.append(record);
          result.records.push_back(record);
          if (m_latency != nullptr) {
            m_latency->record(end_s - static_cast<double>(raw.t_us) * 1e-6);
          }
        }
      }
    }

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

  // Fold device-side accounting (fixed id order).
  for (const auto& link : links) {
    stats.reports_offered += link->reports_offered();
    stats.reports_shed += link->reports_shed();
    stats.arq_transmissions += link->sender().transmissions();
    stats.arq_retransmissions += link->sender().retransmissions();
    stats.arq_drops_retry_exhausted += link->sender().drops_retry_exhausted();
    stats.backpressure_stalls += link->backpressure_stalls();
    stats.link_frames_lost += link->frames_lost();
    stats.link_frames_corrupted += link->frames_corrupted();
    stats.link_frames_reordered += link->frames_reordered();
    stats.acks_lost += link->acks_lost();
  }
  // The links and the lanes are read for the last time above. Release
  // them before finish() builds the DSTL image next to its columns, so
  // the run's peak never holds both.
  decltype(links)().swap(links);
  queue = IngestQueue(0, 0);
  stats.frames_accepted = registry.accepted();
  stats.frames_reordered = registry.reordered();
  stats.frames_duplicate = registry.duplicates();
  stats.frames_too_old = registry.too_old();
  stats.sequence_gaps = registry.gaps();
  stats.devices_seen = registry.devices_seen();

  if (metrics != nullptr) {
    m_accepted->set(stats.frames_accepted);
    m_crc->set(stats.frames_crc_rejected);
    m_dup->set(stats.frames_duplicate);
    m_too_old->set(stats.frames_too_old);
    m_reordered->set(stats.frames_reordered);
    m_gaps->set(stats.sequence_gaps);
    m_shed->set(stats.reports_shed);
    m_stalls->set(stats.backpressure_stalls);
    m_mismatch->set(stats.content_mismatches);
  }

  result.dstl = writer.finish();
  return result;
}

}  // namespace distscroll::host
