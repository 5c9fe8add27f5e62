#include "hw/adc.h"

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
  return util::adc10_counts(v.value, rng_.gaussian(0.0, config_.noise_lsb_stddev));
}

}  // namespace distscroll::hw
