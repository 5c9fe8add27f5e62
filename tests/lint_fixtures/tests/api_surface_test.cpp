// Fixture: a test is not a program — raw_km stays a test-only-api
// finding although this file calls it.
#include "study/api_surface.h"

int check_raw_km() { return fixture::Odometer(3).raw_km() == 3 ? 0 : 1; }
