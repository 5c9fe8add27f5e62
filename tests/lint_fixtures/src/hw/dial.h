// Fixture: test-only-api by include closure, the dead half. No file that
// includes this header calls Dial::level, so it is reported although
// gauge_user.cpp calls Gauge::level, a member of the same name in
// another header. Dial::zero stays silent: an override is reached
// through its base, whose header the caller does include.
#pragma once

#include "hw/gauge.h"

namespace fixture {

class Dial : public Instrument {
 public:
  int zero() const override { return 7; }  // silent: an override
  int level() const { return 7; }          // finding: unreferenced where dial.h is seen
};

}  // namespace fixture
