// Fixture: perfbench/ is read for references only (never linted), so
// this call keeps bench_km out of the test-only-api findings.
#include "study/api_surface.h"

int bench_km_of(const fixture::Odometer& odometer) { return odometer.bench_km(); }
