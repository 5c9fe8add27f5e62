#include "sensors/gp2d120.h"

namespace distscroll::sensors {

std::function<util::Volts(util::Seconds)> Gp2d120Model::as_analog_source(
    std::function<util::Centimeters(util::Seconds)> distance_provider) {
  return [this, provider = std::move(distance_provider)](util::Seconds now) {
    return output(provider(now), now);
  };
}

}  // namespace distscroll::sensors
