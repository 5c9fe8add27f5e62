// Fixture: include-hygiene. <iostream> in a header and parent-relative
// includes are flagged. (#pragma once present, so pragma-once is silent
// here — see no_pragma_once.h for that rule.)
#pragma once

#include <iostream>         // finding: <iostream> in a header
#include "../sim/wallclock.cpp"  // finding: parent-relative include

namespace fixture {

inline std::ostream& kLog = std::cout;

}  // namespace fixture
