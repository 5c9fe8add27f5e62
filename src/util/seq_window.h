// Sliding 64-frame dedupe window over an 8-bit sequence space.
//
// The one implementation of "have I seen this frame?" for every
// receiver of sequenced telemetry: the ARQ receiver's dedupe
// (wireless/arq), the host's per-device admission (host/device_registry)
// and the PC logger's gap count (wireless/host_logger). The window keeps
// the highest sequence seen and a bitmap of the 64 sequences at and
// behind it, and classifies every arrival as
//
//   Accept           the first frame, an in-order frame or a forward jump
//                    of fewer than 128 (gap_delta = the skipped frames,
//                    which a late frame may still fill),
//   AcceptReordered  a late frame inside the window that was not yet seen
//                    (it fills one of the gaps counted earlier),
//   Duplicate        inside the window and already seen,
//   TooOld           64 or more behind the highest: "duplicate" and
//                    "ancient" cannot be told apart, so it is dropped.
//
// 8-bit distances of 128 and more read as "behind" (a 255 -> 0 wrap is one
// step ahead; 0 -> 128 is 128 behind, hence TooOld).
#pragma once

#include <cstdint>

namespace distscroll::util {

class SeqWindow {
 public:
  enum class Verdict : std::uint8_t {
    Accept,
    AcceptReordered,
    Duplicate,
    TooOld,
  };

  struct Decision {
    Verdict verdict = Verdict::Accept;
    /// Frames newly skipped by a forward jump (0 unless Accept).
    std::uint16_t gap_delta = 0;

    /// Accept or AcceptReordered: deliver the frame.
    [[nodiscard]] bool accepted() const {
      return verdict == Verdict::Accept || verdict == Verdict::AcceptReordered;
    }
  };

  Decision admit(std::uint8_t seq) {
    if (!started_) {
      started_ = true;
      highest_ = seq;
      seen_ = 1;
      return {Verdict::Accept, 0};
    }
    const auto ahead = static_cast<std::uint8_t>(seq - highest_);
    if (ahead != 0 && ahead < 128) {
      seen_ = (ahead >= 64) ? 0 : (seen_ << ahead);
      seen_ |= 1;
      highest_ = seq;
      return {Verdict::Accept, static_cast<std::uint16_t>(ahead - 1)};
    }
    const auto behind = static_cast<std::uint8_t>(highest_ - seq);
    if (behind >= 64) return {Verdict::TooOld, 0};
    const std::uint64_t bit = 1ull << behind;
    if (seen_ & bit) return {Verdict::Duplicate, 0};
    seen_ |= bit;
    return {Verdict::AcceptReordered, 0};
  }

  /// True once a frame has been admitted.
  [[nodiscard]] bool started() const { return started_; }

 private:
  bool started_ = false;
  std::uint8_t highest_ = 0;
  std::uint64_t seen_ = 0;  // bit i set = (highest_ - i) seen
};

}  // namespace distscroll::util
