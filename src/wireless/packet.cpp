#include "wireless/packet.h"

#include <cassert>

#include "util/crc.h"
#include "util/hot_path.h"

namespace distscroll::wireless {

void StateReport::pack_into(std::span<std::uint8_t, kPackedSize> out) const {
  out[0] = static_cast<std::uint8_t>(adc_counts & 0xFF);
  out[1] = static_cast<std::uint8_t>((adc_counts >> 8) & 0xFF);
  out[2] = menu_depth;
  out[3] = cursor_index;
  out[4] = level_size;
  out[5] = buttons;
}

std::optional<StateReport> StateReport::unpack(std::span<const std::uint8_t> payload) {
  if (payload.size() != 6) return std::nullopt;
  StateReport r;
  r.adc_counts = static_cast<std::uint16_t>(payload[0] | (payload[1] << 8));
  r.menu_depth = payload[2];
  r.cursor_index = payload[3];
  r.level_size = payload[4];
  r.buttons = payload[5];
  return r;
}

std::size_t encode_into(FrameType type, std::uint8_t seq, std::span<const std::uint8_t> payload,
                        std::span<std::uint8_t> out) {
  // Unconditional (not assert): an undersized span must never become an
  // out-of-bounds write in NDEBUG builds.
  if (payload.size() > kMaxPayload) return 0;
  const std::size_t total = payload.size() + 5;
  if (out.size() < total) return 0;
  out[0] = kSyncByte;
  out[1] = static_cast<std::uint8_t>(2 + payload.size());  // LEN: TYPE SEQ PAYLOAD
  out[2] = static_cast<std::uint8_t>(type);
  out[3] = seq;
  for (std::size_t i = 0; i < payload.size(); ++i) out[4 + i] = payload[i];
  // CRC over LEN..PAYLOAD (everything after sync).
  out[total - 1] = util::crc8({out.data() + 1, total - 2});
  return total;
}

std::optional<FrameView> parse_wire_frame(std::span<const std::uint8_t> wire) {
  if (wire.size() < 5 || wire.size() > kMaxEncodedFrame) return std::nullopt;
  if (wire[0] != kSyncByte) return std::nullopt;
  const std::uint8_t len = wire[1];
  if (len < 2 || len > 2 + kMaxPayload) return std::nullopt;
  // The buffer must be exactly SYNC LEN body CRC — a trailing-garbage or
  // truncated image is a transport bug, not a parsable frame.
  if (wire.size() != static_cast<std::size_t>(len) + 3) return std::nullopt;
  if (!is_known_frame_type(wire[2])) return std::nullopt;
  // CRC over LEN..PAYLOAD, matching encode_into.
  if (util::crc8(wire.subspan(1, static_cast<std::size_t>(len) + 1)) != wire[wire.size() - 1]) {
    return std::nullopt;
  }
  FrameView view;
  view.type = static_cast<FrameType>(wire[2]);
  view.seq = wire[3];
  view.payload = wire.subspan(4, static_cast<std::size_t>(len) - 2);
  return view;
}

// The byte path: steady-state allocation-free (DS_HOT is lint-enforced;
// tests/alloc_guard_test.cpp pins it for a warm receiver and logger).
DS_HOT_BEGIN
void FrameDecoder::feed(std::uint8_t byte, FrameHandler on_frame) {
  if (size_ == 0 && byte != kSyncByte) return;  // between frames: not a frame start
  // scan() leaves at most a frame's prefix, one byte short of its end.
  assert(size_ < window_.size());
  window_[size_++] = byte;
  scan(on_frame);
}

void FrameDecoder::flush(FrameHandler on_frame) {
  // Each pass drops the truncated partial's sync byte, so the loop ends.
  while (size_ > 0) {
    ++framing_errors_;
    ++resyncs_;
    drop_front(1);
    scan(on_frame);
  }
}

void FrameDecoder::scan(FrameHandler on_frame) {
  for (;;) {
    std::size_t sync = 0;
    while (sync < size_ && window_[sync] != kSyncByte) ++sync;
    drop_front(sync);
    if (size_ < 2) return;
    const std::size_t len = window_[1];
    if (len < 2 || len > 2 + kMaxPayload) {
      // The LEN byte itself is rescanned: it may be the sync of a real
      // frame that this spurious sync captured.
      ++framing_errors_;
      ++resyncs_;
      drop_front(1);
      continue;
    }
    if (size_ < 3) return;
    // Reject an unknown TYPE at once, so resync starts LEN bytes sooner.
    if (!is_known_frame_type(window_[2])) {
      ++framing_errors_;
      ++resyncs_;
      drop_front(1);
      continue;
    }
    if (size_ < len + 3) return;
    // SYNC, LEN and TYPE already hold: only the CRC can fail here.
    const auto frame = parse_wire_frame({window_.data(), len + 3});
    if (!frame) {
      ++crc_errors_;
      ++resyncs_;
      drop_front(1);
      continue;
    }
    ++frames_decoded_;
    on_frame(*frame);
    drop_front(len + 3);
  }
}

void FrameDecoder::drop_front(std::size_t count) {
  // Overlapping shift toward the front; at most one frame's bytes move.
  for (std::size_t i = count; i < size_; ++i) window_[i - count] = window_[i];
  size_ -= count;
}
DS_HOT_END

}  // namespace distscroll::wireless
