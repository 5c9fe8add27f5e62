// The speed reference: a fixed kernel timed right before and right after
// every 1-thread pass, on the same CPU, so that the pass's rate can be
// scaled to a fixed host speed.
//
// On a shared host, other tenants' load slows stretches of passes by up to
// 40 %, for minutes at a time. A plain ALU loop or a pointer chase barely
// notices it; the simulator's code — indirect calls, data-dependent
// branches, floating point and pointer chasing over a few MiB — slows
// with it. This kernel has that shape, so its speed follows the load the
// pass saw. It is the benchmark's own code: no change under src/ moves it.
#include <cmath>
#include <cstdint>

#include "harness.h"

namespace perfbench {
namespace {

using Node = SpeedReference::Node;
using Step = double (*)(Node&, double);

double step_decay(Node& n, double x) {
  n.a = n.a * 0.999 + x;
  return n.a > 1.0 ? n.b : n.c;
}
double step_drift(Node& n, double x) {
  n.b += 0.5 * x;
  return n.b < n.c ? x + 1.0 : x - 1.0;
}
double step_norm(Node& n, double x) {
  n.c = std::sqrt(n.c * n.c + x * x + 1e-9);
  return 1e-3 * n.c;
}
double step_peak(Node& n, double x) {
  if (x > n.a) {
    n.a = x;
    return 1.0;
  }
  return -0.5;
}
constexpr Step kSteps[] = {step_decay, step_drift, step_norm, step_peak};

constexpr std::size_t kNodes = std::size_t{1} << 16;  // 2 MiB of nodes
constexpr int kWalkSteps = 500000;  // about 20 ms on the measurement host

}  // namespace

SpeedReference::SpeedReference() : pristine_(kNodes) {
  std::uint64_t x = 88172645463325252ull;
  for (Node& n : pristine_) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    n = {static_cast<std::uint32_t>(x % kNodes), static_cast<std::uint32_t>((x >> 32) & 3), 0.1,
         0.2, 0.3};
  }
}

double SpeedReference::speed() {
  // Each step's successor depends on the running sum, through a
  // float-to-int conversion and a division by the (run-time) node count:
  // one long dependency chain through an indirect call, a branch and a
  // load, as in the simulator's per-sample code.
  // Every walk starts from the same node values, so it does the same work.
  nodes_ = pristine_;
  const std::int64_t t0 = now_ns();
  std::size_t i = 0;
  double sum = 0.0;
  for (int k = 0; k < kWalkSteps; ++k) {
    Node& n = nodes_[i];
    sum += kSteps[n.kind](n, sum * 1e-6);
    i = (n.next ^ (static_cast<std::uint64_t>(static_cast<std::int64_t>(sum)) & 7)) % nodes_.size();
  }
  const std::int64_t t1 = now_ns();
  sink_ += sum;
  return kWalkSteps * 1e9 / static_cast<double>(t1 - t0) / kNominalStepsPerS;
}

}  // namespace perfbench
