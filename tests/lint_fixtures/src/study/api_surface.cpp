// Fixture: the program-side callers of api_surface.h. The override is
// reached only through the base, and macro_km only inside a macro.
#include "study/api_surface.h"

#define FIXTURE_KM(odometer) (odometer).macro_km()

namespace fixture {

int total_km(const Meter& meter, const Odometer& odometer) {
  return meter.read() + FIXTURE_KM(odometer);
}

}  // namespace fixture
