// Trace serialisation: a binary container for byte-exact regression
// artifacts and a JSONL rendering for humans and external tooling.
//
// Binary layout (all little-endian, written field by field — struct
// padding never touches the file):
//
//   offset  size  field
//   0       4     magic "DSTR"
//   4       2     format version (1)
//   6       2     session id (0 = unspecified; 1 = the canonical
//                 phone-menu session, see obs/replay.h)
//   8       4     category mask the trace was captured with
//   12      4     event count N
//   16      8     dropped-event count at capture time
//   24      17*N  events: time (f64 bits), kind (u8), a (u32), b (u32)
//
// Because every field has a fixed width and order, two traces are
// byte-identical exactly when their header metadata and event streams
// are — the property the golden-trace tests and trace_replay rely on.
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "obs/trace_event.h"

namespace distscroll::obs {

struct Trace {
  std::uint16_t session_id = 0;
  std::uint32_t category_mask = kCatAll;
  std::uint64_t dropped = 0;
  std::vector<TraceEvent> events;

  friend bool operator==(const Trace&, const Trace&) = default;
};

inline constexpr std::uint16_t kTraceFormatVersion = 1;
inline constexpr std::uint16_t kCanonicalPhoneMenuSession = 1;

/// Serialise to the binary container format.
[[nodiscard]] std::vector<std::uint8_t> serialize(const Trace& trace);

/// Parse a binary container; nullopt on bad magic/version/truncation or
/// an event whose kind byte is not a defined EventKind.
[[nodiscard]] std::optional<Trace> deserialize(const std::vector<std::uint8_t>& bytes);

/// Write/read the binary container to/from a file. write returns false
/// when the file could not be opened or written.
bool write_trace(const std::string& path, const Trace& trace);
[[nodiscard]] std::optional<Trace> read_trace(const std::string& path);

/// One JSON object per line:
/// {"t":0.020000000,"kind":"adc_read","a":2,"b":512}
void write_jsonl(std::ostream& out, const Trace& trace);
bool write_jsonl_file(const std::string& path, const Trace& trace);

}  // namespace distscroll::obs
