// UART model.
//
// The Smart-Its base board exposes a serial connector (paper Fig. 3);
// the wireless module sits behind it. We model baud-limited byte
// transmission with a bounded TX queue (the device only sends), so
// telemetry bandwidth is a real constraint: at 115200 baud a state
// frame costs ~1 ms, which matters at a 38 Hz sensor rate.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "util/ring_buffer.h"
#include "util/units.h"

namespace distscroll::hw {

class Uart {
 public:
  /// Backpressure hook: fires after each byte leaves the TX FIFO, i.e.
  /// whenever transmit() space just opened up. Senders with their own
  /// queues (wireless::EventArqSender) use it instead of polling tx_free().
  // ds-lint: allow(no-std-function-hot-path) wired once to the ARQ driver at link setup
  using TxSpaceCallback = std::function<void()>;

  /// 115200 baud, 8N1: 10 bit times per byte.
  [[nodiscard]] util::Seconds byte_time() const { return util::Seconds{10.0 / kBaud}; }

  /// Firmware queues a byte for transmission. Returns false when the TX
  /// FIFO is full (byte dropped — the firmware must pace itself).
  bool transmit(std::uint8_t byte) { return tx_fifo_.try_push(byte); }

  [[nodiscard]] std::size_t tx_free() const { return tx_fifo_.capacity() - tx_fifo_.size(); }

  void set_tx_space_callback(TxSpaceCallback cb) { tx_space_cb_ = std::move(cb); }

  /// The wire side clocks out one byte if available; invoked by the
  /// board at byte_time() intervals.
  std::optional<std::uint8_t> clock_out() {
    auto byte = tx_fifo_.pop();
    if (byte && tx_space_cb_) tx_space_cb_();
    return byte;
  }

 private:
  static constexpr double kBaud = 115200.0;
  // The PIC 18F452 USART has a tiny hardware FIFO; firmware typically
  // adds a software ring in RAM. 64 bytes models base board firmware.
  util::RingBuffer<std::uint8_t, 64> tx_fifo_;
  TxSpaceCallback tx_space_cb_;
};

}  // namespace distscroll::hw
