// Columnar compaction of the accepted telemetry stream: the "DSTL"
// container.
//
// The ingest pipeline accepts hundreds of thousands of StateReport
// frames per session; keeping them as decoded structs (or as JSONL)
// wastes an order of magnitude over what the data contains. Telemetry
// columns are individually tiny-entropy — timestamps are near-periodic,
// ADC counts drift slowly, the u8 fields barely move — so each field is
// stored as its own column with the encoding that fits it:
//
//   column       encoding
//   device_id    LEB128 varint per record (ids are small)
//   t_us         varint: first record absolute, then zigzag(delta) —
//                deltas across a lane-merged stream can be negative
//   seq          raw u8 (wraps; deltas would not help)
//   adc_counts   zigzag(delta vs previous record) varint
//   menu_depth   raw u8
//   cursor_index raw u8
//   level_size   raw u8
//   buttons      raw u8
//
// Container layout (little-endian, written field by field — mirrors
// obs/trace_io's DSTR container, so golden artifacts byte-compare):
//
//   offset  size  field
//   0       4     magic "DSTL"
//   4       2     format version (1)
//   6       2     session id (0 = unspecified; 2 = the canonical
//                 8-device ingest session, tests/host_test.cpp)
//   8       4     record count N
//   12      ...   8 columns, each: u32 byte length + bytes
//   end-4   4     CRC-32 over everything before this field
//
// decode_dstl() is the attack surface the byte-mutation fuzzer hammers:
// every read is bounds-checked, column lengths are validated against
// the remaining bytes BEFORE any allocation is sized from them, and a
// declared record count larger than the container is rejected outright
// (the seq column alone needs one byte per record). Decode either
// returns the exact record vector that was encoded or nullopt — never a
// crash, never an over-read (tests/host_fuzz_test.cpp, asan flavour).
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "wireless/packet.h"

namespace distscroll::host {

inline constexpr std::uint16_t kDstlFormatVersion = 1;
inline constexpr std::uint16_t kCanonicalHostIngestSession = 2;

/// One accepted telemetry frame, fully decoded.
struct CompactRecord {
  std::uint64_t t_us = 0;  // simulated arrival time, microseconds
  std::uint16_t device_id = 0;
  std::uint8_t seq = 0;
  wireless::StateReport state{};

  bool operator==(const CompactRecord&) const = default;
};

// --- varint helpers (shared with the fuzzer) ------------------------------

/// Append an unsigned LEB128 varint (1..10 bytes). Forced inline: the
/// writer calls it three times per record, and GCC's size heuristic
/// would otherwise keep the push_back growth path out of line.
[[gnu::always_inline]] inline void put_varint(std::vector<std::uint8_t>& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(value) | 0x80u);
    value >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(value));
}

/// Bounds-checked varint read: advances `cursor` and returns true on
/// success; false (cursor untouched beyond consumed prefix is NOT
/// guaranteed — treat the stream as dead) on truncation or a varint
/// longer than 10 bytes.
[[nodiscard]] bool get_varint(std::span<const std::uint8_t> bytes, std::size_t& cursor,
                              std::uint64_t& value);

[[nodiscard]] constexpr std::uint64_t zigzag(std::int64_t value) {
  return (static_cast<std::uint64_t>(value) << 1) ^
         static_cast<std::uint64_t>(value >> 63);
}
[[nodiscard]] constexpr std::int64_t unzigzag(std::uint64_t value) {
  return static_cast<std::int64_t>(value >> 1) ^ -static_cast<std::int64_t>(value & 1);
}

// --- streaming encoder ----------------------------------------------------

/// Append-only column builder: the ingest pipeline feeds accepted
/// records one at a time (no row buffer is retained) and finish()
/// serialises the container. Memory is O(encoded bytes).
class ColumnarWriter {
 public:
  explicit ColumnarWriter(std::uint16_t session_id = 0) : session_id_(session_id) {}

  /// Size every column for `records` typical records up front, so the
  /// columns are allocated once instead of growing by doubling: a device
  /// id below 2^14, a time delta below 2^20 us and an ADC delta below
  /// 2^13 counts each fit 2, 3 and 2 varint bytes, the five u8 columns
  /// one byte each (12 bytes a record). Capacity only: no byte of the
  /// container depends on it, and a column that outgrows it still grows.
  void reserve(std::size_t records);
  void append(const CompactRecord& record);
  [[nodiscard]] std::uint32_t records() const { return count_; }
  /// Serialise the container (the writer itself stays appendable, so
  /// tests can snapshot mid-stream; the pipeline calls it once).
  [[nodiscard]] std::vector<std::uint8_t> finish() const;

 private:
  std::uint16_t session_id_;
  std::uint32_t count_ = 0;
  std::uint64_t prev_t_us_ = 0;
  std::int64_t prev_adc_ = 0;
  std::vector<std::uint8_t> device_ids_;
  std::vector<std::uint8_t> times_;
  std::vector<std::uint8_t> seqs_;
  std::vector<std::uint8_t> adcs_;
  std::vector<std::uint8_t> depths_;
  std::vector<std::uint8_t> cursors_;
  std::vector<std::uint8_t> levels_;
  std::vector<std::uint8_t> buttons_;
};

/// One-shot convenience over ColumnarWriter.
// ds-lint: allow(test-only-api) the round-trip, compression and fuzz tests build containers with it
[[nodiscard]] std::vector<std::uint8_t> encode_dstl(std::span<const CompactRecord> records,
                                                    std::uint16_t session_id = 0);

/// Parse a DSTL container; nullopt on any structural, bounds or CRC
/// failure. `session_id` (when non-null) receives the header field.
// ds-lint: allow(test-only-api) the golden and fuzz tests read back what host_ingest writes
[[nodiscard]] std::optional<std::vector<CompactRecord>> decode_dstl(
    std::span<const std::uint8_t> bytes, std::uint16_t* session_id = nullptr);

/// Write/read the container to/from a file. write returns false when
/// the file could not be opened or written.
bool write_dstl_file(const std::string& path, std::span<const std::uint8_t> container);
// ds-lint: allow(test-only-api) the golden DSTL test loads its committed artifact with it
[[nodiscard]] std::optional<std::vector<std::uint8_t>> read_dstl_file(const std::string& path);

/// JSONL export, one record per line (integers only, so the rendering
/// is byte-stable across platforms):
/// {"t_us":26312,"device":3,"seq":12,"adc":512,"depth":1,"cursor":4,"level":16,"buttons":0}
void write_jsonl(std::ostream& out, std::span<const CompactRecord> records);
bool write_jsonl_file(const std::string& path, std::span<const CompactRecord> records);

}  // namespace distscroll::host
