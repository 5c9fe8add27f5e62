// PC-side telemetry receiver.
//
// Decodes the frame stream coming off the RF link and keeps the study
// harness's view of device state: last state report and link-quality
// counters. This is the "PC used for logging" end of the paper's
// research setup.
//
// One logger follows ONE device's sequence stream (the paper's setup:
// one prototype, one PC). Fleets of devices go through host ingest
// (src/host/), which keeps a sequence window per device id.
#pragma once

#include <cstdint>
#include <optional>

#include "util/seq_window.h"
#include "wireless/packet.h"

namespace distscroll::wireless {

class HostLogger {
 public:
  /// Byte sink to hang on RfLink::set_host_sink (raw pipeline).
  void on_byte(std::uint8_t byte);

  /// Frame sink to hang on ArqReceiver::set_frame_sink (reliable
  /// pipeline — framing and dedupe already happened downstairs).
  /// Retransmissions arrive out of order there; a late frame fills the
  /// gap it left, so sequence_gaps() settles to the frames never
  /// delivered. ARQ delivery accounting lives in LinkStats.
  void on_frame(const FrameView& frame);

  /// Most recent state report logged.
  [[nodiscard]] std::optional<StateReport> last_state() const { return last_state_; }

  /// Frames accepted by the logger. Equals decoder().frames_decoded()
  /// on the raw byte path; on the ARQ path the decoder is idle and this
  /// counts on_frame() deliveries.
  [[nodiscard]] std::uint64_t frames_received() const { return frames_logged_; }
  [[nodiscard]] std::uint64_t crc_errors() const { return decoder_.crc_errors(); }

  /// Sequence slots skipped by forward jumps and not filled by a late
  /// frame: the frames the link dropped between received ones.
  [[nodiscard]] std::uint64_t sequence_gaps() const { return sequence_gaps_; }

  [[nodiscard]] const FrameDecoder& decoder() const { return decoder_; }

 private:
  FrameDecoder decoder_;
  std::optional<StateReport> last_state_;
  util::SeqWindow window_;
  std::uint64_t sequence_gaps_ = 0;
  std::uint64_t frames_logged_ = 0;
};

}  // namespace distscroll::wireless
