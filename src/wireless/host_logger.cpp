#include "wireless/host_logger.h"

namespace distscroll::wireless {

void HostLogger::on_byte(std::uint8_t byte) {
  const auto log = [this](const FrameView& frame) { on_frame(frame); };
  decoder_.feed(byte, log);
}

void HostLogger::on_frame(const FrameView& frame) {
  ++frames_logged_;
  const util::SeqWindow::Decision decision = window_.admit(frame.seq);
  if (decision.verdict == util::SeqWindow::Verdict::Accept) {
    sequence_gaps_ += decision.gap_delta;
  } else if (decision.verdict == util::SeqWindow::Verdict::AcceptReordered &&
             sequence_gaps_ > 0) {
    --sequence_gaps_;  // saturating: a frame older than the first fills no counted gap
  }
  if (frame.type == FrameType::State) last_state_ = StateReport::unpack(frame.payload);
}

}  // namespace distscroll::wireless
