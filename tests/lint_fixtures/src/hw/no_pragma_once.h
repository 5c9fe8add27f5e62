// Fixture: pragma-once. This header deliberately lacks #pragma once;
// the diagnostic lands on line 1.
#ifndef FIXTURE_NO_PRAGMA_ONCE_H
#define FIXTURE_NO_PRAGMA_ONCE_H

namespace fixture {

inline constexpr int kGuardedTheOldWay = 1;

}  // namespace fixture

#endif  // FIXTURE_NO_PRAGMA_ONCE_H
