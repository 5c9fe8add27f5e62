#include "util/bench_report.h"

#include <cstdio>
#include <fstream>

namespace distscroll::util {

bool write_bench_report(const BenchReport& report) {
  std::ofstream out("BENCH_" + report.name + ".json");
  if (!out) return false;
  char buffer[1024];
  std::snprintf(buffer, sizeof(buffer),
                "{\n"
                "  \"name\": \"%s\",\n"
                "  \"cells\": %zu,\n"
                "  \"threads\": %zu,\n"
                "  \"hardware_threads\": %zu,\n"
                "  \"sequential_wall_s\": %.6f,\n"
                "  \"parallel_wall_s\": %.6f,\n"
                "  \"speedup\": %.3f,\n"
                "  \"bit_identical\": %s,\n"
                "  \"tracing_compiled\": %s,\n"
                "  \"peak_rss_bytes\": %zu",
                report.name.c_str(), report.cells, report.threads, report.hardware_threads,
                report.sequential_wall_s, report.parallel_wall_s, report.speedup,
                report.bit_identical ? "true" : "false",
                report.tracing_compiled ? "true" : "false", report.peak_rss_bytes);
  out << buffer;
  if (report.fleet_participants > 0) {
    std::snprintf(buffer, sizeof(buffer),
                  ",\n"
                  "  \"fleet_participants\": %zu,\n"
                  "  \"fleet_participants_per_s\": %.1f,\n"
                  "  \"fleet_resume_bit_identical\": %s,\n"
                  "  \"fleet_rss_growth\": %.4f",
                  report.fleet_participants, report.fleet_participants_per_s,
                  report.fleet_resume_bit_identical ? "true" : "false",
                  report.fleet_rss_growth);
    out << buffer;
  }
  if (report.host_devices > 0) {
    std::snprintf(buffer, sizeof(buffer),
                  ",\n"
                  "  \"host_devices\": %zu,\n"
                  "  \"host_frames_per_s\": %.1f,\n"
                  "  \"host_drop_rate\": %.6f",
                  report.host_devices, report.host_frames_per_s, report.host_drop_rate);
    out << buffer;
  }
  if (!report.metrics_json.empty()) {
    out << ",\n  \"metrics\": {\n" << report.metrics_json << "\n  }";
  }
  out << "\n}\n";
  return static_cast<bool>(out);
}

}  // namespace distscroll::util
