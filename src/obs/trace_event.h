// The trace event model: one fixed-layout record per observable fact.
//
// Every event is (time, kind, a, b) — 8 + 1 + 4 + 4 bytes of payload,
// serialised field-by-field in little-endian order (never memcpy'd as a
// struct, so padding can't leak into trace files). The meaning of `a`
// and `b` is per-kind and documented on the enumerator. Keeping the
// record this small is what lets the Tracer hold tens of thousands of
// events in a pre-allocated ring and what makes byte-comparison of two
// traces a meaningful equality of *behaviour*.
#pragma once

#include <cstdint>

namespace distscroll::obs {

enum class EventKind : std::uint8_t {
  /// GP2D120 internal remeasure on its 38 ms grid. a = output in
  /// microvolts, b = 1 when a specular glitch floored the reading.
  SensorMeasure = 1,
  /// Firmware read ADC counts this tick. a = ADC channel, b = counts.
  AdcRead = 2,
  /// Scroll selection entered an island. a = island index, b = mapped
  /// menu index.
  IslandEnter = 3,
  /// Selection left an island (for a different island or a gap).
  /// a = island index being left, b = mapped menu index.
  IslandLeave = 4,
  /// Filtered counts crossed from an island into a selection-free dead
  /// zone (selection carried over). a = island whose selection is held,
  /// b = filtered counts at the crossing.
  DeadZoneCross = 5,
  /// Menu cursor moved. a = new absolute index, b = menu depth.
  CursorMove = 6,
  /// Debounced button edge. a = button index, b = 1 press / 0 release.
  ButtonEdge = 7,
  // 8..11 are retired (ARQ kinds that nothing recorded): never reuse
  // them, so an old file with one fails to load instead of misreading.
  /// Device pushed a full redraw to both panels. a = cursor index,
  /// b = level size at the flush.
  DisplayFlush = 12,
  // 13 is retired (a scheduler overrun kind that nothing recorded):
  // never reuse it.
};

/// Category bits for runtime filtering; the trace file records the mask
/// it was captured with so replay compares like against like.
enum Category : std::uint32_t {
  kCatSensor = 1u << 0,    // SensorMeasure
  kCatAdc = 1u << 1,       // AdcRead
  kCatScroll = 1u << 2,    // IslandEnter/IslandLeave/DeadZoneCross
  kCatInput = 1u << 3,     // ButtonEdge
  // Bit 4 is retired with the ARQ kinds: never reuse it.
  kCatDisplay = 1u << 5,   // DisplayFlush/CursorMove
  // Bit 6 is retired with kind 13: never reuse it.
  kCatAll = kCatSensor | kCatAdc | kCatScroll | kCatInput | kCatDisplay,
  /// The deterministically replayable subset: the device-level inputs
  /// (ADC counts, button edges) plus everything the firmware derives
  /// from them. Excludes the stochastic sensor internals, which a
  /// replay run does not re-execute.
  kCatReplay = kCatAdc | kCatScroll | kCatInput | kCatDisplay,
};

/// The kind's category bit; 0 for a byte that is not a defined kind.
[[nodiscard]] constexpr std::uint32_t category_of(EventKind kind) {
  switch (kind) {
    case EventKind::SensorMeasure:
      return kCatSensor;
    case EventKind::AdcRead:
      return kCatAdc;
    case EventKind::IslandEnter:
    case EventKind::IslandLeave:
    case EventKind::DeadZoneCross:
      return kCatScroll;
    case EventKind::ButtonEdge:
      return kCatInput;
    case EventKind::CursorMove:
    case EventKind::DisplayFlush:
      return kCatDisplay;
  }
  return 0;
}

[[nodiscard]] constexpr const char* kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::SensorMeasure: return "sensor_measure";
    case EventKind::AdcRead: return "adc_read";
    case EventKind::IslandEnter: return "island_enter";
    case EventKind::IslandLeave: return "island_leave";
    case EventKind::DeadZoneCross: return "dead_zone_cross";
    case EventKind::CursorMove: return "cursor_move";
    case EventKind::ButtonEdge: return "button_edge";
    case EventKind::DisplayFlush: return "display_flush";
  }
  return "unknown";
}

struct TraceEvent {
  double time_s = 0.0;
  EventKind kind = EventKind::SensorMeasure;
  std::uint32_t a = 0;
  std::uint32_t b = 0;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

}  // namespace distscroll::obs
