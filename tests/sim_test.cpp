// Unit tests for the discrete-event kernel and RNG streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

#include "sim/event_queue.h"
#include "sim/random.h"

namespace distscroll::sim {
namespace {

TEST(EventQueue, DispatchesInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(util::Seconds{3.0}, [&] { order.push_back(3); });
  q.schedule_at(util::Seconds{1.0}, [&] { order.push_back(1); });
  q.schedule_at(util::Seconds{2.0}, [&] { order.push_back(2); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeEventsKeepInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule_at(util::Seconds{1.0}, [&, i] { order.push_back(i); });
  }
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, ClockAdvancesToEventTime) {
  EventQueue q;
  double seen = -1.0;
  q.schedule_at(util::Seconds{2.5}, [&] { seen = q.now().value; });
  q.run_all();
  EXPECT_DOUBLE_EQ(seen, 2.5);
  EXPECT_DOUBLE_EQ(q.now().value, 2.5);
}

TEST(EventQueue, ScheduleAfterIsRelative) {
  EventQueue q;
  double fired_at = -1.0;
  q.schedule_at(util::Seconds{1.0}, [&] {
    q.schedule_after(util::Seconds{0.5}, [&] { fired_at = q.now().value; });
  });
  q.run_all();
  EXPECT_DOUBLE_EQ(fired_at, 1.5);
}

TEST(EventQueue, SchedulingInThePastClampsToNow) {
  EventQueue q;
  double fired_at = -1.0;
  q.schedule_at(util::Seconds{2.0}, [&] {
    q.schedule_at(util::Seconds{0.5}, [&] { fired_at = q.now().value; });
  });
  q.run_all();
  EXPECT_DOUBLE_EQ(fired_at, 2.0);
}

TEST(EventQueue, CancelPendingEvent) {
  EventQueue q;
  bool fired = false;
  const auto h = q.schedule_at(util::Seconds{1.0}, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(h));
  EXPECT_FALSE(q.cancel(h));  // already gone
  q.run_all();
  EXPECT_FALSE(fired);
}

TEST(EventQueue, RunUntilStopsAtBoundaryAndAdvancesClock) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(util::Seconds{1.0}, [&] { ++fired; });
  q.schedule_at(util::Seconds{5.0}, [&] { ++fired; });
  EXPECT_EQ(q.run_until(util::Seconds{2.0}), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(q.now().value, 2.0);  // observed time even with no event
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, RunUntilIncludesBoundaryEvents) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(util::Seconds{2.0}, [&] { ++fired; });
  q.run_until(util::Seconds{2.0});
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, PeriodicSelfRescheduling) {
  EventQueue q;
  int count = 0;
  std::function<void()> tick = [&] {
    ++count;
    if (count < 10) q.schedule_after(util::Seconds{0.1}, tick);
  };
  q.schedule_after(util::Seconds{0.1}, tick);
  q.run_until(util::Seconds{0.55});
  EXPECT_EQ(count, 5);
  q.run_all();
  EXPECT_EQ(count, 10);
}

TEST(EventQueue, RunAllRespectsCap) {
  EventQueue q;
  std::function<void()> forever = [&] { q.schedule_after(util::Seconds{0.001}, forever); };
  q.schedule_after(util::Seconds{0.001}, forever);
  EXPECT_EQ(q.run_all(100), 100u);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 20; ++i) {
    if (a.uniform(0, 1) == b.uniform(0, 1)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, ForkIsStableAndIndependentOfParentDraws) {
  Rng a(42);
  Rng child_before = a.fork(7);
  (void)a.uniform(0, 1);  // parent draws...
  (void)a.gaussian(0, 1);
  Rng child_after = a.fork(7);  // ...must not shift the child stream
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(child_before.uniform(0, 1), child_after.uniform(0, 1));
  }
}

TEST(Rng, ForkDifferentTagsDiffer) {
  Rng a(42);
  Rng c1 = a.fork(1);
  Rng c2 = a.fork(2);
  EXPECT_NE(c1.uniform(0, 1), c2.uniform(0, 1));
}

TEST(Rng, BernoulliEdgeCases) {
  Rng r(9);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng r(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const int v = r.uniform_int(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    saw_lo |= (v == 3);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianZeroStddevReturnsMean) {
  Rng r(5);
  EXPECT_DOUBLE_EQ(r.gaussian(3.5, 0.0), 3.5);
}

TEST(Rng, ExponentialMeanApproximately) {
  Rng r(11);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential(2.0);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

/// Raw engine steps taken to move a clone of `from` to `to`.
int raw_draws(Rng from, const Rng::EngineState& to) {
  int steps = 0;
  while (!(from.engine_state() == to)) {
    from.next_u64();
    ++steps;
    if (steps > 64) ADD_FAILURE() << "engine states never re-converged";
    if (steps > 64) break;
  }
  return steps;
}

/// Distance in units in the last place between two positive doubles.
std::uint64_t ulps(double a, double b) {
  const auto ia = std::bit_cast<std::uint64_t>(a);
  const auto ib = std::bit_cast<std::uint64_t>(b);
  return ia > ib ? ia - ib : ib - ia;
}

double f(double x) { return std::exp(-0.5 * x * x); }

TEST(Rng, ZigguratTablesHoldTheirInvariants) {
  const double* x = kZigguratX;
  const double* fx = kZigguratF;
  EXPECT_EQ(x[1], kZigguratR);
  EXPECT_EQ(x[256], 0.0);
  EXPECT_EQ(fx[256], 1.0);
  for (int i = 0; i < 256; ++i) EXPECT_GT(x[i], x[i + 1]) << "i " << i;

  // Every layer has area V: the base is the rectangle under f(R) plus the
  // tail integral, and also x[0] * f(R); layer i >= 1 is x[i] wide and
  // f[i+1] - f[i] tall.
  const double tail = std::sqrt(std::numbers::pi / 2.0) * std::erfc(kZigguratR / std::sqrt(2.0));
  EXPECT_NEAR((kZigguratR * fx[1] + tail) / kZigguratV, 1.0, 1e-12);
  EXPECT_NEAR(x[0] * fx[1] / kZigguratV, 1.0, 1e-12);
  for (int i = 1; i < 256; ++i) {
    EXPECT_NEAR(x[i] * (fx[i + 1] - fx[i]) / kZigguratV, 1.0, 1e-12) << "layer " << i;
  }

  // Each literal against one step of the defining recursion in libm.
  EXPECT_LE(ulps(x[0], kZigguratV / f(kZigguratR)), 2u);
  for (int i = 1; i < 255; ++i) {
    EXPECT_LE(ulps(x[i + 1], std::sqrt(-2.0 * std::log(kZigguratV / x[i] + fx[i]))), 2u)
        << "x[" << i + 1 << "]";
  }
  for (int i = 0; i < 257; ++i) EXPECT_LE(ulps(fx[i], f(x[i])), 2u) << "f[" << i << "]";
}

TEST(Rng, GaussianDrawsOneEngineStepOnTheFastPath) {
  Rng r(31);
  for (const double stddev : {0.0, -1.0}) {
    const auto before = r.engine_state();
    EXPECT_EQ(r.gaussian(2.5, stddev), 2.5);
    EXPECT_EQ(r.engine_state(), before) << "stddev " << stddev;
  }

  // The fast path accepts layer i with probability x[i+1] / x[i]; every
  // other call draws again, so it takes at least two steps.
  double fast = 0.0;
  for (int i = 0; i < 256; ++i) fast += kZigguratX[i + 1] / kZigguratX[i] / 256.0;
  constexpr int kCalls = 100000;
  int one_step = 0;
  for (int k = 0; k < kCalls; ++k) {
    Rng clone = r;
    r.gaussian(0.0, 1.0);
    clone.next_u64();
    if (clone.engine_state() == r.engine_state()) {
      ++one_step;
    } else {
      EXPECT_GE(raw_draws(clone, r.engine_state()), 1);
    }
  }
  const double share = static_cast<double>(one_step) / kCalls;
  EXPECT_GE(share, 0.98);
  EXPECT_NEAR(share, fast, 5.0 * std::sqrt(fast * (1.0 - fast) / kCalls));
}

/// 10^6 standard normals at a fixed seed, shared by the distribution tests.
const std::vector<double>& normals() {
  static const std::vector<double> draws = [] {
    Rng r(2005);
    std::vector<double> out(1000000);
    for (double& value : out) value = r.gaussian(0.0, 1.0);
    return out;
  }();
  return draws;
}

double phi(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

TEST(Rng, GaussianChiSquareOver64EquiprobableBins) {
  std::vector<double> counts(64, 0.0);
  for (const double x : normals()) counts[std::min(63, static_cast<int>(64.0 * phi(x)))] += 1.0;
  const double expected = static_cast<double>(normals().size()) / 64.0;
  double chi2 = 0.0;
  for (const double c : counts) chi2 += (c - expected) * (c - expected) / expected;
  EXPECT_LT(chi2, 131.37);  // chi-square, 63 degrees of freedom, upper p = 1e-6
}

TEST(Rng, GaussianTailMassBeyondRMatchesTheNormal) {
  // Only the base layer reaches past R, so each side of the tail checks
  // that layer's sign as well as its rejection sampler.
  const double n = static_cast<double>(normals().size());
  const double p = 1.0 - phi(kZigguratR);
  double above = 0.0, below = 0.0;
  for (const double x : normals()) {
    above += x > kZigguratR ? 1.0 : 0.0;
    below += x < -kZigguratR ? 1.0 : 0.0;
  }
  const auto sigma = [n](double q) { return std::sqrt(n * q * (1.0 - q)); };
  EXPECT_NEAR(above + below, 2.0 * p * n, 5.0 * sigma(2.0 * p));
  EXPECT_NEAR(above, p * n, 5.0 * sigma(p));
  EXPECT_NEAR(below, p * n, 5.0 * sigma(p));
}

TEST(Rng, GaussianPositiveAndNegativeHalvesAreAlike) {
  std::vector<double> pos, neg;
  for (const double x : normals()) (x >= 0.0 ? pos : neg).push_back(std::fabs(x));
  std::sort(pos.begin(), pos.end());
  std::sort(neg.begin(), neg.end());
  // Two-sample Kolmogorov–Smirnov statistic D = sup |F_pos - F_neg|.
  double d = 0.0;
  std::size_t i = 0, j = 0;
  while (i < pos.size() && j < neg.size()) {
    const double at = std::min(pos[i], neg[j]);
    while (i < pos.size() && pos[i] <= at) ++i;
    while (j < neg.size() && neg[j] <= at) ++j;
    d = std::max(d, std::fabs(static_cast<double>(i) / static_cast<double>(pos.size()) -
                              static_cast<double>(j) / static_cast<double>(neg.size())));
  }
  const double np = static_cast<double>(pos.size()), nn = static_cast<double>(neg.size());
  // Critical value at p = 1e-6: sqrt(-ln(p / 2) / 2) * sqrt((n + m) / (n m)).
  EXPECT_LT(d, 2.6934 * std::sqrt((np + nn) / (np * nn)));
}

}  // namespace
}  // namespace distscroll::sim
