#include "hw/adc.h"

#include <algorithm>

#include "util/rounding.h"

namespace distscroll::hw {

std::size_t Adc10::attach(AnalogSource source) {
  assert(source);
  channels_.push_back(std::move(source));
  return channels_.size() - 1;
}

util::AdcCounts Adc10::sample(std::size_t channel, util::Seconds now) {
  assert(channel < channels_.size());
  const util::Volts v = channels_[channel](now);
  double counts = v.value / config_.vref * 1023.0;
  counts += rng_.gaussian(0.0, config_.noise_lsb_stddev);
  counts = std::clamp(counts, 0.0, 1023.0);
  return util::AdcCounts{static_cast<std::uint16_t>(util::round_nonneg(counts))};
}

}  // namespace distscroll::hw
