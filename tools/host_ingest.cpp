// host_ingest: drive the multi-device telemetry ingest pipeline from
// the command line — the operational face of host::run_host_ingest (the
// bench exp_host_ingest is the measured face).
//
// Usage:
//   host_ingest [--devices N] [--duration S] [--loss P] [--reorder P]
//               [--corrupt P] [--ack-loss P] [--lanes N]
//               [--lane-capacity N] [--batch N] [--threads N] [--seed S]
//               [--session N] [--out PATH.dstl] [--jsonl PATH.jsonl]
//
// Prints an ingest summary to stdout; --out writes the DSTL container,
// --jsonl the decoded accepted stream as JSON lines.
//
// Numbers are strict (tools/cli_args.h): probabilities are finite and in
// [0, 1], --duration is finite and positive, --threads is at most 256,
// and --lanes x --lane-capacity and --batch are at most 2^20 slots;
// anything else out of range is a usage error.
//
// Exit codes: 0 = clean ingest (no content mismatches and every report
// accepted, shed or dropped after retry exhaustion) or --help; 1 =
// content mismatch, unwritable output, or an incomplete drain (the grace
// period ran out with reports still undelivered: offered - accepted -
// shed - retry-dropped > 0; --out/--jsonl are written first, the reason
// goes to stderr); 64 = malformed command line. A grace that runs out
// while the host already holds every report (its acks were lost, so
// accepted frames still wait in device queues) exits 0 with a note.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>

#include "cli_args.h"
#include "host/host_pipeline.h"

namespace {

constexpr int kExitOk = 0;
constexpr int kExitFail = 1;
constexpr int kExitUsage = 64;

// Documented upper bound on the ingest queue (usage error above it):
// --lanes x --lane-capacity slots of one RawRecord each, and --batch
// drained records, stay within about 100 MiB.
constexpr std::uint64_t kMaxQueueSlots = 1u << 20;

int usage(std::FILE* to = stderr) {
  std::fprintf(to,
               "usage: host_ingest [--devices N] [--duration S] [--loss P] [--reorder P]\n"
               "                   [--corrupt P] [--ack-loss P] [--lanes N]\n"
               "                   [--lane-capacity N] [--batch N] [--threads N] [--seed S]\n"
               "                   [--session N] [--out PATH.dstl] [--jsonl PATH.jsonl]\n"
               "limits: --threads 0..%" PRIu64 ", --lanes x --lane-capacity and --batch 1..%" PRIu64
               "\n"
               "exit: 0 every report delivered (accepted, shed or retry-dropped),\n"
               "      1 content mismatch, unwritable output or grace exhausted with\n"
               "      reports undelivered (outputs still written), 64 usage error\n",
               distscroll::tools::kMaxThreads, kMaxQueueSlots);
  return kExitUsage;
}

}  // namespace

int main(int argc, char** argv) {
  using distscroll::host::HostIngestConfig;

  HostIngestConfig config;
  config.devices = 64;
  config.lanes = 8;
  std::string out_path;
  std::string jsonl_path;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next_u64 = [&](std::uint64_t& out, std::uint64_t lo = 0, std::uint64_t hi = UINT64_MAX) {
      return i + 1 < argc && distscroll::tools::parse_u64(argv[++i], out, lo, hi);
    };
    auto next_prob = [&](double& out) {
      return i + 1 < argc && distscroll::tools::parse_prob(argv[++i], out);
    };
    std::uint64_t value = 0;
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      usage(stdout);
      return kExitOk;
    } else if (std::strcmp(arg, "--devices") == 0) {
      if (!next_u64(value, 1, 65535)) return usage();
      config.devices = static_cast<std::size_t>(value);
    } else if (std::strcmp(arg, "--duration") == 0) {
      double seconds = 0.0;
      if (i + 1 >= argc || !distscroll::tools::parse_finite(argv[++i], seconds) ||
          seconds <= 0.0) {
        return usage();
      }
      config.duration_s = seconds;
    } else if (std::strcmp(arg, "--loss") == 0) {
      if (!next_prob(config.faults.frame_loss)) return usage();
    } else if (std::strcmp(arg, "--reorder") == 0) {
      if (!next_prob(config.faults.reorder)) return usage();
    } else if (std::strcmp(arg, "--corrupt") == 0) {
      if (!next_prob(config.faults.bit_flip)) return usage();
    } else if (std::strcmp(arg, "--ack-loss") == 0) {
      if (!next_prob(config.faults.ack_loss)) return usage();
    } else if (std::strcmp(arg, "--lanes") == 0) {
      if (!next_u64(value, 1, kMaxQueueSlots)) return usage();
      config.lanes = static_cast<std::size_t>(value);
    } else if (std::strcmp(arg, "--lane-capacity") == 0) {
      if (!next_u64(value, 1, kMaxQueueSlots)) return usage();
      config.lane_capacity = static_cast<std::size_t>(value);
    } else if (std::strcmp(arg, "--batch") == 0) {
      if (!next_u64(value, 1, kMaxQueueSlots)) return usage();
      config.batch = static_cast<std::size_t>(value);
    } else if (std::strcmp(arg, "--threads") == 0) {
      if (!next_u64(value, 0, distscroll::tools::kMaxThreads)) return usage();
      config.threads = static_cast<std::size_t>(value);
    } else if (std::strcmp(arg, "--seed") == 0) {
      if (!next_u64(config.base_seed)) return usage();
    } else if (std::strcmp(arg, "--session") == 0) {
      if (!next_u64(value, 0, 65535)) return usage();
      config.session_id = static_cast<std::uint16_t>(value);
    } else if (std::strcmp(arg, "--out") == 0) {
      if (i + 1 >= argc) return usage();
      out_path = argv[++i];
    } else if (std::strcmp(arg, "--jsonl") == 0) {
      if (i + 1 >= argc) return usage();
      jsonl_path = argv[++i];
    } else {
      return usage();
    }
  }
  if (config.lanes * config.lane_capacity > kMaxQueueSlots) return usage();

  const auto result = distscroll::host::run_host_ingest(config);
  const auto& stats = result.stats;
  std::printf("devices            %zu (seen %" PRIu64 ")\n", config.devices, stats.devices_seen);
  std::printf("reports offered    %" PRIu64 "  (shed %" PRIu64 ")\n", stats.reports_offered,
              stats.reports_shed);
  std::printf("frames accepted    %" PRIu64 "  (reordered %" PRIu64 ", dup %" PRIu64
              ", too-old %" PRIu64 ")\n",
              stats.frames_accepted, stats.frames_reordered, stats.frames_duplicate,
              stats.frames_too_old);
  std::printf("crc rejected       %" PRIu64 "  (link: lost %" PRIu64 ", corrupted %" PRIu64
              ", reordered %" PRIu64 ")\n",
              stats.frames_crc_rejected, stats.link_frames_lost, stats.link_frames_corrupted,
              stats.link_frames_reordered);
  std::printf("arq tx             %" PRIu64 "  (retx %" PRIu64 ", retry-drops %" PRIu64
              ", stalls %" PRIu64 ")\n",
              stats.arq_transmissions, stats.arq_retransmissions,
              stats.arq_drops_retry_exhausted, stats.backpressure_stalls);
  std::printf("residual gaps      %" PRIu64 "\n", stats.sequence_gaps);
  std::printf("max queue depth    %zu\n", stats.max_queue_depth);
  std::printf("windows            %" PRIu64 "  (%s)\n", stats.windows,
              stats.complete ? "drained" : "grace exhausted");
  std::printf("content mismatches %" PRIu64 "\n", stats.content_mismatches);
  std::printf("dstl bytes         %zu  (%.2f bytes/record)\n", result.dstl.size(),
              result.records.empty()
                  ? 0.0
                  : static_cast<double>(result.dstl.size()) /
                        static_cast<double>(result.records.size()));

  if (stats.content_mismatches != 0) {
    std::fprintf(stderr, "host_ingest: accepted-frame content mismatch\n");
    return kExitFail;
  }
  if (!out_path.empty() && !distscroll::host::write_dstl_file(out_path, result.dstl)) {
    std::fprintf(stderr, "host_ingest: cannot write %s\n", out_path.c_str());
    return kExitFail;
  }
  if (!jsonl_path.empty() &&
      !distscroll::host::write_jsonl_file(jsonl_path, result.records)) {
    std::fprintf(stderr, "host_ingest: cannot write %s\n", jsonl_path.c_str());
    return kExitFail;
  }
  if (!stats.complete) {
    // Still queued device-side is not the same as undelivered: a frame
    // the host accepted stays queued until one of its acks gets through.
    const std::uint64_t settled =
        stats.frames_accepted + stats.reports_shed + stats.arq_drops_retry_exhausted;
    const std::uint64_t undelivered =
        settled < stats.reports_offered ? stats.reports_offered - settled : 0;
    if (undelivered > 0) {
      std::fprintf(stderr,
                   "host_ingest: drain incomplete: grace exhausted with %" PRIu64
                   " reports undelivered\n",
                   undelivered);
      return kExitFail;
    }
    std::printf("note               every report delivered; accepted frames are still "
                "awaiting acks\n");
  }
  return kExitOk;
}
