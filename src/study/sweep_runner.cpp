#include "study/sweep_runner.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "util/strict_parse.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace distscroll::study {

std::size_t resolve_sweep_threads(std::size_t requested) {
  if (requested != 0) return requested;
  const std::size_t hardware = std::max(1u, std::thread::hardware_concurrency());
  return util::env_u64("DISTSCROLL_THREADS", hardware, 1, util::kMaxThreads).value_or(hardware);
}

double sweep_wall_clock_s() {
  // ds-lint: allow(no-wallclock) the BENCH json wall metric: measures the host, never feeds sim state
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double>(now).count();
}

std::size_t sweep_peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  // ds-lint: allow(no-wallclock) BENCH json memory metric: reads the host, never feeds sim state
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::size_t>(usage.ru_maxrss);  // bytes on Darwin
#else
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024u;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

}  // namespace distscroll::study
