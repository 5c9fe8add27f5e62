// Fixture: the one caller of Gauge::level and Instrument::zero. It does
// not include hw/dial.h, so its calls are no references to Dial's.
#include "hw/gauge.h"

namespace fixture {

int read_gauge(const Gauge& gauge, const Instrument& instrument) {
  return gauge.level() - instrument.zero();
}

}  // namespace fixture
