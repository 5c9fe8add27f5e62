// Telemetry frame format between the DistScroll prototype and the PC.
//
// The prototype is a "self contained interaction device that can be
// wirelessly linked to a PC" (paper Section 3.2); the PC logs state for
// the user study. Frames are byte-oriented for the UART path:
//
//   SYNC(0xAA) LEN TYPE SEQ PAYLOAD... CRC8
//
// LEN counts TYPE..PAYLOAD (not SYNC/LEN/CRC). CRC8 covers LEN..PAYLOAD.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>

#include "util/function_ref.h"

namespace distscroll::wireless {

inline constexpr std::uint8_t kSyncByte = 0xAA;
inline constexpr std::size_t kMaxPayload = 32;
/// Largest wire image: SYNC LEN TYPE SEQ payload CRC.
inline constexpr std::size_t kMaxEncodedFrame = 5 + kMaxPayload;

enum class FrameType : std::uint8_t {
  State = 0x01,      // periodic device state (cursor, adc, buttons)
  ButtonEvent = 0x02,
  SelectionEvent = 0x03,
  Heartbeat = 0x04,
  Debug = 0x05,
  Ack = 0x06,        // ARQ acknowledgement; seq field names the acked frame
};

/// TYPE bytes the decoder accepts: the core protocol above plus the
/// 0x10..0x1F extension range used by add-on protocols (pda::). Anything
/// else is treated as a framing error, never delivered as a garbage enum.
[[nodiscard]] constexpr bool is_known_frame_type(std::uint8_t raw) {
  return (raw >= 0x01 && raw <= 0x06) || (raw >= 0x10 && raw <= 0x1F);
}

/// The periodic state report, packed into a State frame payload.
struct StateReport {
  std::uint16_t adc_counts = 0;   // raw distance sensor reading
  std::uint8_t menu_depth = 0;
  std::uint8_t cursor_index = 0;
  std::uint8_t level_size = 0;
  std::uint8_t buttons = 0;       // bit i = button i pressed

  bool operator==(const StateReport&) const = default;

  static constexpr std::size_t kPackedSize = 6;

  void pack_into(std::span<std::uint8_t, kPackedSize> out) const;
  [[nodiscard]] static std::optional<StateReport> unpack(std::span<const std::uint8_t> payload);
};

/// The encoder: write the wire image of (type, seq, payload) into
/// caller storage `out` (sized >= payload.size() + 5, e.g. a
/// kMaxEncodedFrame stack array) and return the byte count, so no send
/// path touches the heap. Returns 0 without writing when the payload
/// exceeds kMaxPayload or `out` is too small — never out of bounds.
std::size_t encode_into(FrameType type, std::uint8_t seq, std::span<const std::uint8_t> payload,
                        std::span<std::uint8_t> out);

/// One validated wire frame: TYPE/SEQ decoded, the payload a span into
/// the bytes it was validated in. parse_wire_frame() returns it for
/// frames that arrive already delimited (host ingest); FrameDecoder
/// hands it to its handler for a byte stream. Either way the payload
/// borrows — copy what must outlive the buffer.
struct FrameView {
  FrameType type = FrameType::Heartbeat;
  std::uint8_t seq = 0;
  std::span<const std::uint8_t> payload;
};

/// Validate one complete wire image (SYNC LEN TYPE SEQ PAYLOAD CRC) in
/// place. Returns nullopt when the buffer is not exactly one well-formed
/// frame: wrong sync, LEN outside [2, 2+kMaxPayload], size mismatch,
/// unknown TYPE, or CRC failure. Never reads outside `wire`.
[[nodiscard]] std::optional<FrameView> parse_wire_frame(std::span<const std::uint8_t> wire);

/// Receives each frame a FrameDecoder completes. The payload points into
/// the decoder's window and is valid only during the call; the handler
/// must not feed the same decoder.
using FrameHandler = util::FunctionRef<void(const FrameView&)>;

/// Incremental decoder for a byte stream. It keeps one fixed window, at
/// most one frame long, that always starts at a candidate sync byte
/// (other bytes arriving between frames are dropped). The window is
/// checked in wire order as it fills: a bad LEN or an unknown TYPE is a
/// framing error and a resync, and at LEN+3 bytes
/// parse_wire_frame() validates it — a failure there is a CRC error and
/// a resync. On any failure only the leading sync byte is dropped and
/// the rest is rescanned, so a corrupted byte never swallows the bytes
/// behind it: a bit-flipped LEN that captured the next frame's sync
/// gives it back, and single-byte corruption of a valid stream loses at
/// most the frame it landed in (tests/wireless_test.cpp holds this as a
/// property). One byte can complete several frames after a rescan; the
/// handler sees each, in stream order.
class FrameDecoder {
 public:
  /// Feed one byte; calls `on_frame` for every frame it completes.
  void feed(std::uint8_t byte, FrameHandler on_frame);

  /// End of stream: a partial frame can never complete now, so discard
  /// its sync byte (a framing error and a resync) and rescan the rest —
  /// complete frames wedged behind a truncated one are recovered.
  // ds-lint: allow(test-only-api) the mutation-corpus tests pin end-of-stream recovery; no program ends a stream
  void flush(FrameHandler on_frame);

  [[nodiscard]] std::uint64_t crc_errors() const { return crc_errors_; }
  [[nodiscard]] std::uint64_t framing_errors() const { return framing_errors_; }
  [[nodiscard]] std::uint64_t frames_decoded() const { return frames_decoded_; }
  /// Error windows rescanned for a sync byte (resync attempts).
  [[nodiscard]] std::uint64_t resyncs() const { return resyncs_; }

 private:
  /// Deliver or reject what the window holds, until it is empty or a
  /// valid prefix waiting for more bytes.
  void scan(FrameHandler on_frame);
  void drop_front(std::size_t count);

  std::array<std::uint8_t, kMaxEncodedFrame> window_{};
  std::size_t size_ = 0;
  std::uint64_t crc_errors_ = 0;
  std::uint64_t framing_errors_ = 0;
  std::uint64_t frames_decoded_ = 0;
  std::uint64_t resyncs_ = 0;
};

}  // namespace distscroll::wireless
