// Fixture: no-std-function-hot-path. A device-side header storing or
// taking std::function is flagged; util::FunctionRef and suppressed
// setup-time owners stay silent.
#pragma once

#include <functional>

namespace fixture {

struct Sampler {
  using SampleFn = std::function<double(double)>;  // finding

  std::function<void()> callback;  // finding

  // ds-lint: allow(no-std-function-hot-path) fixture: justified setup-time owner stays silent
  std::function<void()> owner_slot;

  // A comment mentioning std::function must stay silent.
  double (*plain_pointer)(double) = nullptr;  // silent: plain function pointer
};

}  // namespace fixture
