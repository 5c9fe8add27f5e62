// exp_host_ingest: the multi-device host telemetry ingest pipeline at
// fleet scale.
//
// The paper demonstrated one DistScroll device against one host; this
// bench drives a default fleet of 2000 simulated devices (10k-capable
// via DISTSCROLL_HOST_DEVICES) through the full ingest path — ARQ
// links with loss/corruption/reorder/ack-loss fault injection,
// lane-sharded bounded queue, batch CRC validation, per-device
// sequence accounting, columnar DSTL compaction — and re-proves the
// pipeline's contracts on every run:
//
//   pass 1   timed single-thread reference with content verification —
//            every accepted frame re-derived from its device's pure
//            telemetry source; any mismatch fails the process
//   pass 2,3 same fleet at 2 and 8 threads — DSTL bytes AND the
//            metrics JSON must match the reference byte-for-byte
//   pass 4   overload: the same fleet through starved lanes and a
//            shortened ARQ queue — devices must shed at the source
//            (accepted + shed == offered exactly) with zero accepted-
//            frame corruption; the shed fraction is host_drop_rate
//
// BENCH_exp_host_ingest.json records the reference pass's wall clock as
// sequential_wall_s, the thread-count verdict as bit_identical,
// host_frames_per_s (accepted frames through the timed reference) and
// host_drop_rate; tools/bench_compare gates them under `ctest -L perf`.
// The process exit code enforces the invariants even without a baseline.
//
// Exit codes: 0 = every invariant held, 1 = a pass diverged, failed to
// drain, broke the shedding ledger or could not write its json,
// 64 = DISTSCROLL_HOST_DEVICES set to anything but a whole decimal in
// 16..65535.
#include <cinttypes>
#include <cstdio>
#include <string>

#include "host/host_pipeline.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "study/sweep_runner.h"
#include "util/bench_report.h"
#include "util/strict_parse.h"

namespace {

using distscroll::host::HostIngestConfig;
using distscroll::host::run_host_ingest;

constexpr int kExitUsage = 64;

HostIngestConfig base_config(std::size_t devices) {
  HostIngestConfig config;
  config.devices = devices;
  config.lanes = 8;
  config.lane_capacity = 512;
  config.duration_s = 2.0;
  config.faults.frame_loss = 0.01;
  config.faults.bit_flip = 0.002;
  config.faults.reorder = 0.005;
  config.faults.ack_loss = 0.005;
  config.base_seed = 0xD157BE;
  config.session_id = 7;
  config.threads = 1;
  return config;
}

}  // namespace

int main() {
  namespace study = distscroll::study;
  namespace obs = distscroll::obs;

  // 65535 is host_ingest's --devices cap.
  const auto env_devices = distscroll::util::env_u64("DISTSCROLL_HOST_DEVICES", 2000, 16, 65535);
  if (!env_devices) return kExitUsage;
  const auto devices = static_cast<std::size_t>(*env_devices);

  // Pass 1: the timed single-thread reference, content verification on
  // (the verify cost is part of the pipeline's contract, so it stays
  // on the timed path).
  obs::MetricsRegistry reference_metrics;
  const double t0 = study::sweep_wall_clock_s();
  const auto reference = run_host_ingest(base_config(devices), &reference_metrics);
  const double wall_s = study::sweep_wall_clock_s() - t0;
  if (!reference.stats.complete) {
    std::fprintf(stderr, "exp_host_ingest: reference pass did not drain\n");
    return 1;
  }
  if (reference.stats.content_mismatches != 0) {
    std::fprintf(stderr, "exp_host_ingest: %" PRIu64 " accepted frames failed content verify\n",
                 reference.stats.content_mismatches);
    return 1;
  }
  const std::string reference_metrics_json = reference_metrics.to_json_fields();

  // Passes 2 and 3: the identical fleet on 2 and 8 threads — the DSTL
  // container and the metrics JSON must be byte-equal to the reference.
  bool bit_identical = true;
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    auto config = base_config(devices);
    config.threads = threads;
    obs::MetricsRegistry metrics;
    const auto result = run_host_ingest(config, &metrics);
    const bool same = result.stats.complete && result.dstl == reference.dstl &&
                      metrics.to_json_fields() == reference_metrics_json;
    if (!same) {
      std::fprintf(stderr, "exp_host_ingest: %zu-thread pass DIVERGED from reference\n", threads);
      bit_identical = false;
    }
  }

  // Pass 4: overload. Starved lanes and a shortened ARQ queue force the
  // devices to shed at the source; the accounting must stay exact
  // (accepted + shed == offered) and every frame that DID land must
  // still verify against its telemetry source. Faults are off and the
  // drain grace is generous so the fleet fully drains and the ledger
  // has no third bucket (no retry-exhausted drops, no stranded
  // in-flight frames) — the pass isolates pure backpressure shedding.
  auto overload_config = base_config(devices);
  overload_config.faults = {};
  overload_config.lanes = 2;
  overload_config.lane_capacity = 48;
  overload_config.arq.queue_capacity = 8;
  overload_config.duration_s = 0.5;
  overload_config.drain_grace_s = 10.0;
  const auto overload = run_host_ingest(overload_config);
  const auto& os = overload.stats;
  if (!os.complete || os.content_mismatches != 0 ||
      os.frames_accepted + os.reports_shed != os.reports_offered) {
    std::fprintf(stderr,
                 "exp_host_ingest: overload pass broke the shedding ledger "
                 "(offered %" PRIu64 " accepted %" PRIu64 " shed %" PRIu64 " mismatches %" PRIu64
                 ")\n",
                 os.reports_offered, os.frames_accepted, os.reports_shed, os.content_mismatches);
    return 1;
  }
  const double host_drop_rate =
      os.reports_offered > 0
          ? static_cast<double>(os.reports_shed) / static_cast<double>(os.reports_offered)
          : 0.0;

  const auto& rs = reference.stats;
  const double frames_per_s =
      wall_s > 0.0 ? static_cast<double>(rs.frames_accepted) / wall_s : 0.0;
  std::printf("[exp_host_ingest] %zu devices, %" PRIu64 " frames accepted: %.2f s "
              "(%.0f frames/s, 1 thread)\n",
              devices, rs.frames_accepted, wall_s, frames_per_s);
  std::printf("  lost %" PRIu64 "  corrupted %" PRIu64 "  reordered %" PRIu64
              "  crc-rejected %" PRIu64 "  residual gaps %" PRIu64 "  mismatches %" PRIu64 "\n",
              rs.link_frames_lost, rs.link_frames_corrupted, rs.link_frames_reordered,
              rs.frames_crc_rejected, rs.sequence_gaps, rs.content_mismatches);
  std::printf("  thread bit-identity %s, overload drop rate %.4f (%" PRIu64 " of %" PRIu64
              " offered shed at the device)\n",
              bit_identical ? "OK" : "DIVERGED", host_drop_rate, os.reports_shed,
              os.reports_offered);

  distscroll::util::BenchReport report;
  report.name = "exp_host_ingest";
  report.cells = devices;
  report.threads = 1;  // the timed reference pass
  report.hardware_threads = study::resolve_sweep_threads(0);
  report.sequential_wall_s = wall_s;
  report.parallel_wall_s = wall_s;
  report.speedup = 1.0;
  report.bit_identical = bit_identical;
  report.tracing_compiled = distscroll::obs::Tracer::compiled_in();
  report.peak_rss_bytes = study::sweep_peak_rss_bytes();
  report.host_devices = devices;
  report.host_frames_per_s = frames_per_s;
  report.host_drop_rate = host_drop_rate;
  report.metrics_json = reference_metrics.to_json_fields(4);
  if (!distscroll::util::write_bench_report(report)) {
    std::fprintf(stderr, "exp_host_ingest: could not write BENCH json\n");
    return 1;
  }

  return bit_identical ? 0 : 1;
}
