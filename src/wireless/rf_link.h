// Lossy wireless link between the device UART and the host PC.
//
// Models the short-range RF transceiver behind the Smart-Its serial
// connector: per-byte propagation through the event queue with a fixed
// delay and jitter, a configurable independent byte-loss probability and
// bit-flip corruption. Frame CRCs (wireless::packet) catch corruption on
// the host side — the classic end-to-end argument exercised in tests.
#pragma once

#include <cstdint>
#include <functional>

#include "hw/uart.h"
#include "sim/event_queue.h"
#include "sim/random.h"

namespace distscroll::wireless {

class RfLink {
 public:
  struct Config {
    double byte_loss_probability = 0.002;
    double bit_flip_probability = 0.0005;  // per byte
  };

  using HostSink = std::function<void(std::uint8_t)>;

  RfLink(Config config, hw::Uart& device_uart, sim::EventQueue& queue, sim::Rng rng)
      : config_(config), uart_(&device_uart), queue_(&queue), rng_(rng) {}

  /// Host-side byte sink (the PC's serial port).
  void set_host_sink(HostSink sink) { host_sink_ = std::move(sink); }

  /// Start pumping the device UART TX FIFO onto the air. Bytes leave at
  /// UART baud pacing, then arrive at the host after link latency.
  void start();

  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }
  [[nodiscard]] std::uint64_t bytes_lost() const { return bytes_lost_; }
  [[nodiscard]] std::uint64_t bytes_corrupted() const { return bytes_corrupted_; }

 private:
  void pump();

  Config config_;
  hw::Uart* uart_;
  sim::EventQueue* queue_;
  sim::Rng rng_;
  HostSink host_sink_;
  bool running_ = false;
  double last_arrival_s_ = -1.0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_lost_ = 0;
  std::uint64_t bytes_corrupted_ = 0;
};

}  // namespace distscroll::wireless
