// Fixture: suppression-hygiene meta-rule. A stale allow(), an allow()
// naming an unknown rule, and a justification-free allow() each fire;
// the justified allow() that suppresses a real finding (sample_again)
// is the near-miss and stays silent.
#include <chrono>

namespace distscroll::hw {

// ds-lint: allow(no-wallclock) stale: the next line reads no clock
int counter_width = 3;

// ds-lint: allow(no-alloc-marker) rule name is a typo for no-alloc-markers
int idle_lanes = 4;

long sample_once() {
  const auto t0 = std::chrono::steady_clock::now();  // ds-lint: allow(no-wallclock)
  return static_cast<long>(t0.time_since_epoch().count());
}

long sample_again() {
  // ds-lint: allow(no-wallclock) fixture: justified host-clock probe stays silent
  const auto t0 = std::chrono::steady_clock::now();
  return static_cast<long>(t0.time_since_epoch().count());
}

}  // namespace distscroll::hw
