// trace_replay: record, replay, verify and dump DistScroll traces.
//
//   trace_replay record <out.trace> [out.jsonl]
//       Run the canonical scripted phone-menu session and write the
//       binary trace (plus an optional JSONL rendering). This is how
//       tests/golden/canonical_phone_menu.trace is (re)generated.
//
//   trace_replay verify <in.trace>
//       Re-drive a fresh device from the recorded input streams and
//       byte-compare the resulting trace against the file. Exit 0 on a
//       byte-identical replay, 1 with a divergence diagnosis otherwise.
//
//   trace_replay dump <in.trace>
//       Print the trace as JSONL on stdout.
//
// Exit codes: 0 = done (--help prints usage to stdout), 1 = unreadable
// or unwritable trace, or a diverged replay, 64 = malformed command line.
#include <cstdio>
#include <iostream>
#include <string>

#include "obs/replay.h"
#include "obs/trace_io.h"

namespace {

constexpr int kExitUsage = 64;

int usage(std::FILE* to = stderr) {
  std::fprintf(to,
               "usage: trace_replay record <out.trace> [out.jsonl]\n"
               "       trace_replay verify <in.trace>\n"
               "       trace_replay dump <in.trace>\n");
  return kExitUsage;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace distscroll;
  if (argc >= 2 && (std::string(argv[1]) == "--help" || std::string(argv[1]) == "-h")) {
    usage(stdout);
    return 0;
  }
  if (argc < 3) return usage();
  const std::string mode = argv[1];
  const std::string path = argv[2];
  if (mode != "record" && mode != "verify" && mode != "dump") return usage();
  // A trailing argument no mode takes (a flag from a newer version, a
  // typo) is a usage error, not something to ignore.
  if (argc > (mode == "record" ? 4 : 3)) return usage();

  if (mode == "record") {
    const obs::Trace trace = obs::record_canonical_session();
    if (!obs::write_trace(path, trace)) {
      std::fprintf(stderr, "trace_replay: cannot write %s\n", path.c_str());
      return 1;
    }
    if (argc > 3 && !obs::write_jsonl_file(argv[3], trace)) {
      std::fprintf(stderr, "trace_replay: cannot write %s\n", argv[3]);
      return 1;
    }
    std::printf("recorded session %u: %zu events (%llu dropped) -> %s\n", trace.session_id,
                trace.events.size(), static_cast<unsigned long long>(trace.dropped),
                path.c_str());
    return 0;
  }

  const auto trace = obs::read_trace(path);
  if (!trace) {
    std::fprintf(stderr, "trace_replay: cannot read %s (missing or not a trace)\n",
                 path.c_str());
    return 1;
  }

  if (mode == "verify") {
    const obs::Trace replayed = obs::replay_device_trace(*trace);
    const obs::CompareResult compared = obs::compare_traces(*trace, replayed);
    if (!compared.match) {
      std::fprintf(stderr, "trace_replay: REPLAY DIVERGED: %s\n", compared.detail.c_str());
      return 1;
    }
    std::printf("replay OK: %zu events reproduced byte-for-byte\n", trace->events.size());
    return 0;
  }

  obs::write_jsonl(std::cout, *trace);  // dump
  return 0;
}
