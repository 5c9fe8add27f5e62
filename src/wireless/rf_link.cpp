#include "wireless/rf_link.h"

#include <algorithm>

#include "util/units.h"

namespace distscroll::wireless {

namespace {
constexpr double kLatencyS = 1.5e-3;  // transceiver air + processing delay
constexpr double kJitterS = 0.3e-3;   // above the 87 us byte time at 115 200 Bd
}  // namespace

void RfLink::start() {
  if (running_) return;
  running_ = true;
  pump();
}

void RfLink::pump() {
  if (auto byte = uart_->clock_out()) {
    ++bytes_sent_;
    if (rng_.bernoulli(config_.byte_loss_probability)) {
      ++bytes_lost_;
    } else {
      std::uint8_t wire_byte = *byte;
      if (rng_.bernoulli(config_.bit_flip_probability)) {
        wire_byte ^= static_cast<std::uint8_t>(1u << rng_.uniform_int(0, 7));
        ++bytes_corrupted_;
      }
      const double jitter = rng_.uniform(0.0, kJitterS);
      // A serial stream never reorders: arrivals are monotone even when
      // jitter exceeds the byte spacing.
      double arrival = queue_->now().value + kLatencyS + jitter;
      arrival = std::max(arrival, last_arrival_s_ + 1e-9);
      last_arrival_s_ = arrival;
      queue_->schedule_at(util::Seconds{arrival}, [this, wire_byte] {
        if (host_sink_) host_sink_(wire_byte);
      });
    }
  }
  // Re-poll at UART byte pacing whether or not a byte was available;
  // this models the transceiver clocking the serial line continuously.
  queue_->schedule_after(uart_->byte_time(), [this] { pump(); });
}

}  // namespace distscroll::wireless
