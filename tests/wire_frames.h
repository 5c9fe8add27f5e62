// Test-side helpers for the telemetry wire format.
//
// The library has one encoder (encode_into, into caller storage) and one
// borrowing frame type (FrameView, valid only while the decoder's
// handler runs). Tests that compare what was sent with what was decoded
// need an owning frame, its wire image, and a driver that keeps every
// frame a FrameDecoder delivers.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "wireless/packet.h"

namespace distscroll::wireless::test_support {

struct OwnedFrame {
  FrameType type = FrameType::Heartbeat;
  std::uint8_t seq = 0;
  std::vector<std::uint8_t> payload;

  bool operator==(const OwnedFrame&) const = default;
};

inline OwnedFrame own(const FrameView& view) {
  return {view.type, view.seq, {view.payload.begin(), view.payload.end()}};
}

inline std::vector<std::uint8_t> wire_of(const OwnedFrame& frame) {
  std::array<std::uint8_t, kMaxEncodedFrame> wire{};
  const std::size_t len = encode_into(frame.type, frame.seq, frame.payload, wire);
  return {wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(len)};
}

inline std::vector<std::uint8_t> wire_of(const std::vector<OwnedFrame>& frames) {
  std::vector<std::uint8_t> wire;
  for (const auto& frame : frames) {
    const auto bytes = wire_of(frame);
    wire.insert(wire.end(), bytes.begin(), bytes.end());
  }
  return wire;
}

/// Feeds `wire` byte by byte; returns every frame delivered, in order.
inline std::vector<OwnedFrame> feed_all(FrameDecoder& decoder, std::span<const std::uint8_t> wire) {
  std::vector<OwnedFrame> out;
  const auto keep = [&out](const FrameView& frame) { out.push_back(own(frame)); };
  for (const std::uint8_t byte : wire) decoder.feed(byte, keep);
  return out;
}

/// feed_all, then flush: everything the stream yields.
inline std::vector<OwnedFrame> decode_all(FrameDecoder& decoder,
                                          std::span<const std::uint8_t> wire) {
  std::vector<OwnedFrame> out = feed_all(decoder, wire);
  const auto keep = [&out](const FrameView& frame) { out.push_back(own(frame)); };
  decoder.flush(keep);
  return out;
}

}  // namespace distscroll::wireless::test_support
