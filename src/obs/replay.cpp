#include "obs/replay.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <optional>

#include "core/distscroll_device.h"
#include "menu/phone_menu.h"
#include "obs/tracer.h"
#include "sim/event_queue.h"
#include "sim/random.h"

namespace distscroll::obs {

namespace {

// The canonical session is pinned down to the last bit: seed, device
// configuration, hand profile, press script and duration together define
// the golden trace. Changing ANY of them invalidates tests/golden/.
constexpr std::uint64_t kCanonicalSeed = 0xD157C011ull;
constexpr double kSessionEndS = 9.0;
constexpr std::size_t kTraceCapacity = 1 << 16;

core::DistScrollDevice::Config canonical_config() {
  // Paper defaults: plain long-menu strategy, one ranger, no turbo zone
  // — the configuration the initial study ran with.
  return core::DistScrollDevice::Config{};
}

/// Piecewise-linear hand-to-body distance: settle, sweep near, hold for
/// a selection, sweep far, hold, return mid-range, hold, sweep far and
/// near again — enough motion to cross several islands and dead zones
/// at every menu level the script descends into.
double scripted_distance_cm(double t) {
  struct Knot {
    double t;
    double cm;
  };
  static constexpr Knot kKnots[] = {
      {0.0, 17.0}, {1.0, 17.0}, {2.0, 8.0},  {2.6, 8.0},  {3.6, 22.0},
      {4.3, 22.0}, {5.1, 12.0}, {5.8, 12.0}, {6.7, 25.0}, {7.3, 25.0},
      {8.2, 10.0}, {9.0, 10.0},
  };
  if (t <= kKnots[0].t) return kKnots[0].cm;
  for (std::size_t i = 1; i < std::size(kKnots); ++i) {
    if (t <= kKnots[i].t) {
      const Knot& lo = kKnots[i - 1];
      const Knot& hi = kKnots[i];
      const double f = (t - lo.t) / (hi.t - lo.t);
      return lo.cm + f * (hi.cm - lo.cm);
    }
  }
  return kKnots[std::size(kKnots) - 1].cm;
}

}  // namespace

Trace record_canonical_session() {
  sim::EventQueue queue;
  const auto menu = menu::make_phone_menu();
  core::DistScrollDevice device(canonical_config(), *menu, queue, sim::Rng(kCanonicalSeed));
  device.set_distance_provider(
      [](util::Seconds now) { return util::Centimeters{scripted_distance_cm(now.value)}; });

  Tracer tracer(kTraceCapacity, kCatReplay);
  device.attach_tracer(&tracer);

  // The scripted thumb/finger: select into a submenu during each hold,
  // back out once, select again — times sit off the firmware/button tick
  // grids so the press script can't ride a timer-ordering coincidence.
  struct Press {
    double t;
    int button;  // 0 = select (thumb), 1 = back
    double hold_s;
  };
  static constexpr Press kScript[] = {
      {2.3031, 0, 0.08},
      {4.1573, 0, 0.08},
      {5.6117, 1, 0.08},
      {7.1293, 0, 0.08},
  };
  for (const Press& p : kScript) {
    input::Button& button = (p.button == 0) ? device.select_button() : device.back_button();
    queue.schedule_at(util::Seconds{p.t}, [&button] { button.press(); });
    queue.schedule_at(util::Seconds{p.t + p.hold_s}, [&button] { button.release(); });
  }

  device.power_on();
  queue.run_until(util::Seconds{kSessionEndS});
  device.power_off();

  Trace trace;
  trace.session_id = kCanonicalPhoneMenuSession;
  trace.category_mask = tracer.category_mask();
  trace.dropped = tracer.dropped();
  trace.events = tracer.snapshot();
  return trace;
}

Trace replay_device_trace(const Trace& trace) {
  sim::EventQueue queue;
  const auto menu = menu::make_phone_menu();
  core::DistScrollDevice device(canonical_config(), *menu, queue, sim::Rng(kCanonicalSeed));
  // No distance provider override: with the counts override installed
  // below, the ADC/sensor chain is never consulted at all.

  // Recover the device-level input streams from the recorded trace.
  std::deque<util::AdcCounts> counts;
  struct Edge {
    double t;
    std::uint32_t button;
    bool pressed;
  };
  std::deque<Edge> edges;
  for (const TraceEvent& event : trace.events) {
    if (event.kind == EventKind::AdcRead) {
      counts.push_back(util::AdcCounts{static_cast<std::uint16_t>(event.b)});
    } else if (event.kind == EventKind::ButtonEdge) {
      edges.push_back({event.time_s, event.a, event.b != 0});
    }
  }

  device.set_counts_override([&counts]() -> std::optional<util::AdcCounts> {
    if (counts.empty()) return std::nullopt;  // past the recording: hold
    const util::AdcCounts next = counts.front();
    counts.pop_front();
    return next;
  });

  Tracer tracer(kTraceCapacity, trace.category_mask);
  device.attach_tracer(&tracer);
  device.power_on();

  // Edge injector: a chain at the button-scan period, armed AFTER
  // power_on so it dispatches after the device's own timers at equal
  // timestamps — the order the recorded edges were traced in (a
  // debounced edge fires inside button_tick, which runs after
  // firmware_tick when both land on the same instant).
  const double scan_period = core::DistScrollDevice::kButtonTick.value;
  std::function<void()> inject = [&] {
    const double now = queue.now().value;
    while (!edges.empty() && edges.front().t <= now + 1e-12) {
      device.inject_button_edge(edges.front().button, edges.front().pressed);
      edges.pop_front();
    }
    queue.schedule_after(util::Seconds{scan_period}, inject);
  };
  queue.schedule_after(util::Seconds{scan_period}, inject);

  queue.run_until(util::Seconds{kSessionEndS});
  device.power_off();

  Trace replayed;
  replayed.session_id = trace.session_id;
  replayed.category_mask = tracer.category_mask();
  replayed.dropped = tracer.dropped();
  replayed.events = tracer.snapshot();
  return replayed;
}

CompareResult compare_traces(const Trace& expected, const Trace& actual) {
  CompareResult result;
  char buf[192];
  if (expected.session_id != actual.session_id) {
    std::snprintf(buf, sizeof(buf), "session id mismatch: expected %u, got %u",
                  expected.session_id, actual.session_id);
    result.detail = buf;
    return result;
  }
  if (expected.category_mask != actual.category_mask) {
    std::snprintf(buf, sizeof(buf), "category mask mismatch: expected 0x%x, got 0x%x",
                  expected.category_mask, actual.category_mask);
    result.detail = buf;
    return result;
  }
  if (expected.dropped != actual.dropped) {
    std::snprintf(buf, sizeof(buf),
                  "dropped-count mismatch: expected %llu, got %llu",
                  static_cast<unsigned long long>(expected.dropped),
                  static_cast<unsigned long long>(actual.dropped));
    result.detail = buf;
    return result;
  }
  const std::size_t common = std::min(expected.events.size(), actual.events.size());
  for (std::size_t i = 0; i < common; ++i) {
    const TraceEvent& want = expected.events[i];
    const TraceEvent& got = actual.events[i];
    if (want == got) continue;
    result.first_divergence = i;
    std::snprintf(buf, sizeof(buf),
                  "event %zu diverges: expected t=%.9f %s a=%u b=%u, got t=%.9f %s a=%u b=%u",
                  i, want.time_s, kind_name(want.kind), want.a, want.b, got.time_s,
                  kind_name(got.kind), got.a, got.b);
    result.detail = buf;
    return result;
  }
  if (expected.events.size() != actual.events.size()) {
    result.first_divergence = common;
    std::snprintf(buf, sizeof(buf), "event count mismatch: expected %zu events, got %zu",
                  expected.events.size(), actual.events.size());
    result.detail = buf;
    return result;
  }
  result.match = true;
  return result;
}

}  // namespace distscroll::obs
