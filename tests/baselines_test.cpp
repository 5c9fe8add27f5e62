// Tests for the scrolling-technique implementations the comparison
// study pits against DistScroll.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "baselines/button_scroll.h"
#include "baselines/distance_scroll.h"
#include "baselines/radial_scroll.h"
#include "baselines/tilt_scroll.h"
#include "baselines/wheel_scroll.h"
#include "core/distscroll_device.h"
#include "menu/menu_builder.h"
#include "sensors/gp2d120.h"
#include "util/alloc_guard.h"

namespace distscroll::baselines {
namespace {

// --- DistanceScroll -----------------------------------------------------------

struct DistanceFixture : ::testing::Test {
  DistanceScroll technique{{}, sim::Rng(1)};

  /// Drive the control channel steadily for `seconds` at distance `u`.
  void hold(double u, double seconds, double t0 = 0.0) {
    for (double t = t0; t < t0 + seconds; t += 0.005) {
      technique.on_control(util::Seconds{t}, u);
    }
  }
};

TEST_F(DistanceFixture, AbsoluteSpecInCentimeters) {
  const auto spec = technique.spec();
  EXPECT_EQ(spec.style, ControlStyle::AbsolutePosition);
  EXPECT_EQ(spec.unit, "cm");
  EXPECT_LT(spec.u_min, 4.0);
  EXPECT_GT(spec.u_max, 30.0);
}

TEST_F(DistanceFixture, TargetUAcquiresTarget) {
  technique.reset(8, 0);
  const auto u = technique.target_u(5);
  ASSERT_TRUE(u.has_value());
  hold(*u, 0.5);
  EXPECT_EQ(technique.cursor(), 5u);
}

TEST_F(DistanceFixture, AllTargetsReachable) {
  // At the far end of the range islands are only a few ADC counts wide,
  // so with sensor + ADC noise the cursor can flicker off a far target
  // between samples; "reachable" means the cursor lands on the target
  // at some point while the hand holds its centre distance.
  technique.reset(10, 0);
  double t = 0.0;
  for (std::size_t target = 0; target < 10; ++target) {
    const double u = *technique.target_u(target);
    bool reached = false;
    for (double tt = t; tt < t + 0.4; tt += 0.005) {
      technique.on_control(util::Seconds{tt}, u);
      reached |= technique.cursor() == target;
    }
    t += 0.4;
    EXPECT_TRUE(reached) << target;
  }
}

TEST_F(DistanceFixture, WidthsNarrowerWithMoreEntries) {
  technique.reset(5, 0);
  const double w5 = technique.target_width_u(2);
  technique.reset(25, 0);
  const double w25 = technique.target_width_u(12);
  EXPECT_GT(w5, w25 * 2);
}

TEST_F(DistanceFixture, DirectionMappingMatchesDevice) {
  // Default: toward user scrolls down => target 0 is the FARTHEST.
  technique.reset(6, 0);
  EXPECT_GT(*technique.target_u(0), *technique.target_u(5));
}

TEST_F(DistanceFixture, NearlyGloveInsensitive) {
  EXPECT_LT(technique.glove_sensitivity(), 0.3);
}

// --- DistanceScroll control blocks ------------------------------------------------

/// A planner-like feed on the 4 ms grid: reaches back and forth across
/// the islands with a wobble, so most samples fall before the next
/// firmware tick and the cursor crosses island boundaries.
struct ControlFeed {
  std::vector<double> now_s;
  std::vector<double> u;
};

ControlFeed planner_feed(std::size_t steps, std::uint64_t seed) {
  sim::Rng rng(seed);
  ControlFeed feed;
  double t = 0.0;
  for (std::size_t i = 0; i < steps; ++i, t += 0.004) {
    feed.now_s.push_back(t);
    feed.u.push_back(17.0 + 13.0 * std::sin(0.9 * t) + rng.gaussian(0.0, 0.4));
  }
  return feed;
}

/// Feeds `feed` to `block` in blocks of `lengths` (cycled), its hand
/// reading `block_u`, and to `loop` one on_control at a time, expecting
/// equal cursors after every sample, then the same deadline and the same
/// continuation: equal state.
void expect_block_matches_loop(DistanceScroll& block, DistanceScroll& loop,
                               const ControlFeed& feed, std::span<const double> block_u,
                               std::span<const std::size_t> lengths, const std::string& label) {
  std::vector<std::size_t> cursors;
  std::size_t k = 0;
  for (std::size_t b = 0; k < feed.now_s.size(); ++b) {
    const std::size_t n = std::min(lengths[b % lengths.size()], feed.now_s.size() - k);
    cursors.assign(n, 999);
    const auto hand = [&, k0 = k](std::size_t j) { return block_u[k0 + j]; };
    block.on_control_block(std::span(feed.now_s).subspan(k, n), hand, cursors);
    for (std::size_t j = 0; j < n; ++j, ++k) {
      loop.on_control(util::Seconds{feed.now_s[k]}, feed.u[k]);
      ASSERT_EQ(cursors[j], loop.cursor()) << label << ": sample " << k;
    }
    ASSERT_EQ(block.cursor(), loop.cursor()) << label << ": block " << b;
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(block.next_control_s()),
            std::bit_cast<std::uint64_t>(loop.next_control_s()))
      << label;
  const ControlFeed more = planner_feed(2000, 99);
  for (std::size_t i = 0; i < more.now_s.size(); ++i) {
    const util::Seconds now{feed.now_s.back() + 0.004 + more.now_s[i]};
    block.on_control(now, more.u[i]);
    loop.on_control(now, more.u[i]);
    ASSERT_EQ(block.cursor(), loop.cursor()) << label << ": continuation " << i;
  }
}

TEST(DistanceScrollBlock, MatchesPerSampleLoopBitForBit) {
  const ControlFeed feed = planner_feed(3000, 4);
  const std::size_t lengths[] = {1, 3, 137, 5, 512, 2, 61};
  int cases = 0;
  for (const auto smoothing :
       {core::Smoothing::Raw, core::Smoothing::Median3, core::Smoothing::Ema}) {
    for (const int hysteresis : {0, 2}) {
      for (const auto direction : {core::ScrollDirection::TowardUserScrollsDown,
                                   core::ScrollDirection::TowardUserScrollsUp}) {
        DistanceScroll::Config config;
        config.scroll.smoothing = smoothing;
        config.scroll.direction = direction;
        config.islands.hysteresis_counts = hysteresis;
        DistanceScroll block(config, sim::Rng(40 + cases));
        DistanceScroll loop(config, sim::Rng(40 + cases));
        block.reset(20, 3);
        loop.reset(20, 3);
        expect_block_matches_loop(block, loop, feed, feed.u, lengths,
                                  "case " + std::to_string(cases));
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 12);
}

/// The samples on which DistanceScroll's sensor re-measures, replayed on
/// a separate Gp2d120Model: the firmware ticks (a sample at or after the
/// previous tick + core::kFirmwareTick), then the sensor's own reads_at().
std::vector<bool> remeasure_samples(std::span<const double> now_s) {
  const DistanceScroll::Config config;
  sensors::Gp2d120Model sensor(config.sensor, sim::Rng(1));
  std::vector<bool> reads(now_s.size(), false);
  double next_tick = 0.0;
  for (std::size_t k = 0; k < now_s.size(); ++k) {
    if (now_s[k] < next_tick) continue;
    next_tick = now_s[k] + core::kFirmwareTick.value;
    const util::Seconds now{now_s[k]};
    reads[k] = sensor.reads_at(now);
    (void)sensor.output(util::Centimeters{15.0}, now);
  }
  return reads;
}

TEST(DistanceScrollBlock, HandIsReadOnlyOnRemeasureTicks) {
  // A planner-like feed with a 0.7 s hole in it: the first sample after
  // the hole lies more than a sensor period past the next remeasure, so
  // the sensor resyncs its grid there.
  ControlFeed feed = planner_feed(3000, 5);
  for (std::size_t k = 1500; k < feed.now_s.size(); ++k) feed.now_s[k] += 0.7;
  const std::vector<bool> reads = remeasure_samples(feed.now_s);
  const double period = sensors::Gp2d120Model::kMeasurementPeriod.value;
  std::vector<std::size_t> expected;
  bool resynced = false;
  for (std::size_t k = 0; k < reads.size(); ++k) {
    if (!reads[k]) continue;
    resynced |= !expected.empty() && feed.now_s[k] - feed.now_s[expected.back()] >= 2 * period;
    expected.push_back(k);
  }
  ASSERT_TRUE(resynced);
  // The first tick of a trial always measures; about every other tick
  // re-measures after it.
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(expected.front(), 0u);
  EXPECT_LT(expected.size(), feed.now_s.size() / 8);

  const std::size_t lengths[] = {1, 3, 137, 5, 512, 2, 61};
  DistanceScroll technique({}, sim::Rng(11));
  for (int trial = 0; trial < 2; ++trial) {
    technique.reset(20, 3);
    std::vector<std::size_t> read;
    std::vector<std::size_t> cursors;
    std::size_t k = 0;
    for (std::size_t b = 0; k < feed.now_s.size(); ++b) {
      const std::size_t n = std::min(lengths[b % std::size(lengths)], feed.now_s.size() - k);
      cursors.resize(n);
      const auto hand = [&, k0 = k](std::size_t j) {
        read.push_back(k0 + j);
        return feed.u[k0 + j];
      };
      technique.on_control_block(std::span(feed.now_s).subspan(k, n), hand, cursors);
      k += n;
    }
    // Exactly the remeasures, once each, in increasing k.
    EXPECT_EQ(read, expected) << "trial " << trial;
  }

  // A hand that is NaN on every sample the sensor does not re-measure
  // leaves cursors, deadline and continuation bit-identical.
  std::vector<double> masked = feed.u;
  for (std::size_t k = 0; k < masked.size(); ++k) {
    if (!reads[k]) masked[k] = std::numeric_limits<double>::quiet_NaN();
  }
  DistanceScroll block({}, sim::Rng(12));
  DistanceScroll loop({}, sim::Rng(12));
  block.reset(20, 3);
  loop.reset(20, 3);
  expect_block_matches_loop(block, loop, feed, masked, lengths, "NaN off the remeasures");
}

TEST(DistanceScrollBlock, PeriodIsTheFirmwareTick) {
  DistanceScroll technique({}, sim::Rng(2));
  technique.reset(10, 0);
  const double tick = core::kFirmwareTick.value;
  EXPECT_EQ(technique.control_period_s(), tick);
  // Counted calls, each at or after the previous deadline.
  for (const double t : {0.0, 0.02, 0.1234, 7.0}) {
    technique.on_control(util::Seconds{t}, 12.0);
    EXPECT_EQ(technique.next_control_s(), t + tick) << t;
  }
  // A block's deadline follows its last counted sample.
  const double now_s[] = {7.001, 7.03, 7.04, 7.06};
  const auto hand = [](std::size_t) { return 12.0; };
  std::size_t cursors[4];
  technique.on_control_block(now_s, hand, cursors);
  EXPECT_EQ(technique.next_control_s(), 7.06 + tick);
  // The default claims no period.
  EXPECT_EQ(ButtonScroll{}.control_period_s(), 0.0);
  EXPECT_EQ(TiltScroll({}, sim::Rng(1)).control_period_s(), 0.0);
}

TEST(DistanceScrollBlock, AllocationFreeWhenWarm) {
  if (!util::alloc_interposer_linked()) {
    GTEST_SKIP() << "alloc interposer not linked (sanitizer build)";
  }
  const ControlFeed feed = planner_feed(600, 8);
  std::vector<std::size_t> cursors(feed.now_s.size());
  const auto hand = [&](std::size_t k) { return feed.u[k]; };
  DistanceScroll technique({}, sim::Rng(1));
  technique.reset(10, 0);
  technique.on_control_block(feed.now_s, hand, cursors);  // warm the scratch
  technique.reset(10, 0);
  DS_ASSERT_NO_ALLOC {
    technique.on_control_block(feed.now_s, hand, cursors);
  }
  SUCCEED();
}

// Section 6 runs core::DistScrollDevice, Section 7 runs DistanceScroll.
// Both are the GP2D120 model -> 10-bit ADC -> island table -> scroll
// controller on a 20 ms tick; with every noise source at zero, the same
// hand trace must move both cursors identically.
TEST(DistanceScrollCrossModel, MatchesTheDeviceOnANoiselessSweep) {
  constexpr std::size_t kEntries = 8;
  // Triangle sweep 3.5 -> 30.5 -> 3.5 cm, slow enough that the reading
  // moves well under one count per tick: an off-by-a-fraction quantiser
  // shifts island crossings by whole ticks.
  const auto hand = [](util::Seconds now) {
    const double phase = std::fmod(now.value, 20.0) / 10.0;  // 0..2
    const double x = phase < 1.0 ? phase : 2.0 - phase;
    return util::Centimeters{3.5 + 27.0 * x};
  };
  constexpr double kRunS = 40.0;

  auto menu_root = menu::make_flat_menu(kEntries);
  sim::EventQueue queue;
  core::DistScrollDevice::Config device_config;
  device_config.sensor.output_noise_volts = 0.0;
  device_config.board.adc.noise_lsb_stddev = 0.0;
  core::DistScrollDevice device(device_config, *menu_root, queue, sim::Rng(3));
  // The firmware reads the hand once per tick, at the tick's time: log
  // the times and the cursor the previous tick left.
  std::vector<double> tick_s;
  std::vector<std::size_t> device_cursors;
  device.set_distance_provider([&](util::Seconds now) {
    tick_s.push_back(now.value);
    device_cursors.push_back(device.cursor().index());
    return hand(now);
  });
  device.set_surface({});  // diffuse clothing: no specular glitches
  device.power_on();
  queue.run_until(util::Seconds{kRunS});
  device_cursors.push_back(device.cursor().index());

  DistanceScroll::Config technique_config;
  technique_config.sensor.output_noise_volts = 0.0;
  technique_config.adc_noise_lsb = 0.0;
  DistanceScroll technique(technique_config, sim::Rng(4));
  technique.reset(kEntries, 0);
  std::vector<std::size_t> technique_cursors;
  for (const double t : tick_s) {
    technique_cursors.push_back(technique.cursor());
    technique.on_control(util::Seconds{t}, hand(util::Seconds{t}).value);
    ASSERT_EQ(technique.next_control_s(), t + core::kFirmwareTick.value) << t;
  }
  technique_cursors.push_back(technique.cursor());

  ASSERT_GT(tick_s.size(), 1900u);
  // The sweep visits every entry of the level, so every island's
  // boundaries are crossed both ways.
  std::vector<bool> visited(kEntries, false);
  for (const std::size_t c : device_cursors) visited.at(c) = true;
  EXPECT_EQ(std::count(visited.begin(), visited.end(), true), static_cast<long>(kEntries));
  for (std::size_t k = 0; k < device_cursors.size(); ++k) {
    ASSERT_EQ(technique_cursors[k], device_cursors[k])
        << "tick " << k << " at " << (k < tick_s.size() ? tick_s[k] : kRunS) << " s";
  }
}

// --- TiltScroll ------------------------------------------------------------------

struct TiltFixture : ::testing::Test {
  TiltScroll technique{{}, sim::Rng(2)};

  void hold_tilt(double rad, double seconds, double& t) {
    for (double end = t + seconds; t < end; t += 0.005) {
      technique.on_control(util::Seconds{t}, rad);
    }
  }
};

TEST_F(TiltFixture, DeadbandHoldsStill) {
  technique.reset(20, 10);
  double t = 0.0;
  hold_tilt(0.03, 2.0, t);  // inside deadband
  EXPECT_EQ(technique.cursor(), 10u);
}

TEST_F(TiltFixture, PositiveTiltScrollsDown) {
  technique.reset(20, 0);
  double t = 0.0;
  hold_tilt(0.5, 1.0, t);
  EXPECT_GT(technique.cursor(), 5u);
}

TEST_F(TiltFixture, NegativeTiltScrollsUp) {
  technique.reset(20, 19);
  double t = 0.0;
  hold_tilt(-0.5, 1.0, t);
  EXPECT_LT(technique.cursor(), 15u);
}

TEST_F(TiltFixture, VelocityProportionalToTilt) {
  technique.reset(200, 0);
  double t = 0.0;
  hold_tilt(0.2, 1.0, t);
  const auto gentle = technique.cursor();
  technique.reset(200, 0);
  t = 0.0;
  hold_tilt(0.55, 1.0, t);
  const auto steep = technique.cursor();
  EXPECT_GT(steep, gentle * 2);
}

TEST_F(TiltFixture, ClampsAtEnds) {
  technique.reset(5, 4);
  double t = 0.0;
  hold_tilt(0.55, 5.0, t);
  EXPECT_EQ(technique.cursor(), 4u);
}

/// A processed on_control always moves the sample clock to `now`, and
/// next_control_s() exposes that clock bit for bit, so equal deadlines,
/// equal cursors and an equal shared continuation mean "untouched".
void expect_untouched(TiltScroll probe, TiltScroll clone, double t) {
  EXPECT_EQ(probe.cursor(), clone.cursor());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(probe.next_control_s()),
            std::bit_cast<std::uint64_t>(clone.next_control_s()));
  for (int i = 0; i < 40; ++i) {
    t += 0.004 * (i % 7 + 1);
    const double u = (i % 3 == 0) ? -0.4 : 0.5;
    probe.on_control(util::Seconds{t}, u);
    clone.on_control(util::Seconds{t}, u);
    ASSERT_EQ(probe.cursor(), clone.cursor()) << "continuation step " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(probe.next_control_s()),
              std::bit_cast<std::uint64_t>(clone.next_control_s()));
  }
}

TEST(TiltScrollDeadline, MinusInfinityBeforeTheFirstSample) {
  TiltScroll technique({}, sim::Rng(3));
  technique.reset(20, 10);
  EXPECT_EQ(technique.next_control_s(), -std::numeric_limits<double>::infinity());
  technique.on_control(util::Seconds{0.0}, 0.3);
  EXPECT_GT(technique.next_control_s(), 0.0);
  EXPECT_LT(technique.next_control_s(), 0.02);
  technique.reset(20, 10);
  EXPECT_EQ(technique.next_control_s(), -std::numeric_limits<double>::infinity());
}

TEST(TiltScrollDeadline, CallsBeforeTheDeadlineAreNoOps) {
  // Sample clocks from the planner's 4 ms grid (its FP accumulation)
  // out past the 40 s trial timeout, plus far-off clocks.
  std::vector<double> clocks;
  double grid = 0.0;
  for (int step = 0; step < 12'000; ++step, grid += 0.004) {
    if (step % 997 == 5) clocks.push_back(grid);
  }
  for (const double far : {1e3, 123456.789, 1e6}) clocks.push_back(far);

  const double tick = TiltScroll::Config{}.sample_tick.value;
  sim::Rng rng(11);
  int skipped = 0;
  int near_boundary_processed = 0;
  for (const double last : clocks) {
    TiltScroll base({}, sim::Rng(5));
    base.reset(40, 20);
    base.on_control(util::Seconds{last - tick - 0.004}, 0.3);  // first sample
    base.on_control(util::Seconds{last}, 0.45);                // a tick at `last`
    const double deadline = base.next_control_s();
    ASSERT_LT(deadline, last + tick);

    // Random times before the deadline, and a few ulps around both the
    // deadline and last + tick, where the rounding of now - last matters.
    std::vector<double> times;
    for (int i = 0; i < 16; ++i) times.push_back(rng.uniform(last, deadline));
    for (const double edge : {deadline, last + tick}) {
      double below = edge;
      double above = edge;
      for (int k = 0; k < 4; ++k) {
        times.push_back(below);
        times.push_back(above);
        below = std::nextafter(below, 0.0);
        above = std::nextafter(above, 1e300);
      }
    }
    for (const double now : times) {
      TiltScroll probe = base;
      probe.on_control(util::Seconds{now}, 0.5);
      if (now < deadline) {
        ++skipped;
        expect_untouched(probe, base, now);
      } else if (now - last >= tick) {
        // Past the exact tick the call is processed: the check above
        // would catch a late deadline.
        ++near_boundary_processed;
        EXPECT_NE(std::bit_cast<std::uint64_t>(probe.next_control_s()),
                  std::bit_cast<std::uint64_t>(deadline));
      }
    }
  }
  EXPECT_GT(skipped, 0);
  EXPECT_GT(near_boundary_processed, 0);
}

// --- WheelScroll -------------------------------------------------------------------

struct WheelFixture : ::testing::Test {
  WheelScroll::Config config{9.0, 1.1, /*jam_probability=*/0.0, util::Seconds{1.5}};
  WheelScroll technique{config, sim::Rng(3)};

  void stroke(double length, int direction, double& t) {
    technique.set_direction(direction);
    technique.set_engaged(true);
    for (double u = 0.0; u <= length; u += 0.05) {
      technique.on_control(util::Seconds{t}, u);
      t += 0.002;
    }
    technique.set_engaged(false);
    for (double u = length; u >= 0.0; u -= 0.1) {
      technique.on_control(util::Seconds{t}, u);  // retraction
      t += 0.002;
    }
  }
};

TEST_F(WheelFixture, PullMovesCursorByGain) {
  technique.reset(50, 0);
  double t = 0.0;
  stroke(5.0, +1, t);
  EXPECT_NEAR(static_cast<double>(technique.cursor()), 5.0 * 1.1, 1.0);
}

TEST_F(WheelFixture, RetractionFreewheels) {
  technique.reset(50, 0);
  double t = 0.0;
  stroke(5.0, +1, t);
  const auto after_stroke = technique.cursor();
  // Another full retract cycle with no pull: no motion.
  technique.set_engaged(false);
  for (double u = 0.0; u <= 3.0; u += 0.1) technique.on_control(util::Seconds{t}, u);
  EXPECT_EQ(technique.cursor(), after_stroke);
}

TEST_F(WheelFixture, DirectionReverses) {
  technique.reset(50, 30);
  double t = 0.0;
  stroke(5.0, -1, t);
  EXPECT_LT(technique.cursor(), 28u);
}

TEST_F(WheelFixture, DisengagedPullDoesNothing) {
  technique.reset(50, 10);
  technique.set_direction(1);
  for (double u = 0.0; u <= 5.0; u += 0.1) technique.on_control(util::Seconds{0.0}, u);
  EXPECT_EQ(technique.cursor(), 10u);
}

TEST(WheelScrollJam, JamBlocksInputForRecoveryTime) {
  WheelScroll::Config config;
  config.jam_probability = 1.0;  // always jams
  WheelScroll technique(config, sim::Rng(4));
  technique.reset(50, 0);
  technique.set_direction(1);
  technique.set_engaged(true);
  double t = 0.0;
  for (double u = 0.0; u <= 5.0; u += 0.1) {
    technique.on_control(util::Seconds{t}, u);
    t += 0.002;
  }
  EXPECT_EQ(technique.cursor(), 0u);  // jam ate the stroke
  EXPECT_TRUE(technique.jammed(util::Seconds{t}));
  EXPECT_FALSE(technique.jammed(util::Seconds{t + 2.0}));
}

// --- ButtonScroll -------------------------------------------------------------------

TEST(ButtonScroll, SingleStepsClamped) {
  ButtonScroll technique;
  technique.reset(5, 0);
  technique.on_step(util::Seconds{0.0}, -1);
  EXPECT_EQ(technique.cursor(), 0u);
  technique.on_step(util::Seconds{0.1}, 1);
  technique.on_step(util::Seconds{0.2}, 1);
  EXPECT_EQ(technique.cursor(), 2u);
  for (int i = 0; i < 10; ++i) technique.on_step(util::Seconds{0.3}, 1);
  EXPECT_EQ(technique.cursor(), 4u);
}

TEST(ButtonScroll, HoldRepeatsAfterDelay) {
  ButtonScroll technique;
  technique.reset(100, 0);
  technique.begin_hold(util::Seconds{0.0}, 1);
  EXPECT_EQ(technique.cursor(), 1u);  // initial press
  technique.poll_hold(util::Seconds{0.4});
  EXPECT_EQ(technique.cursor(), 1u);  // still inside repeat delay
  technique.poll_hold(util::Seconds{0.5 + 0.08 * 5});
  EXPECT_EQ(technique.cursor(), 1u + 5u + 1u);  // delay + 5 periods (first fires at 0.5)
  technique.end_hold(util::Seconds{1.5});
}

TEST(ButtonScroll, EndHoldAppliesDueRepeats) {
  ButtonScroll technique;
  technique.reset(100, 0);
  technique.begin_hold(util::Seconds{0.0}, 1);
  technique.end_hold(util::Seconds{0.5 + 0.08 * 3});
  // 1 initial + repeats at 0.5, 0.58, 0.66, 0.74.
  EXPECT_EQ(technique.cursor(), 5u);
}

TEST(ButtonScroll, MaximallyGloveSensitive) {
  ButtonScroll technique;
  EXPECT_DOUBLE_EQ(technique.glove_sensitivity(), 1.0);
}

// --- RadialScroll ---------------------------------------------------------------------

TEST(RadialScroll, AngleMapsToEntries) {
  RadialScroll technique;
  technique.reset(50, 0);
  technique.on_control(util::Seconds{0.0}, 0.0);
  technique.on_control(util::Seconds{0.5}, 1.0);  // one revolution
  EXPECT_EQ(technique.cursor(), 8u);
}

TEST(RadialScroll, ReverseCircling) {
  RadialScroll technique;
  technique.reset(50, 20);
  technique.on_control(util::Seconds{0.0}, 0.0);
  technique.on_control(util::Seconds{0.5}, -1.0);
  EXPECT_EQ(technique.cursor(), 12u);
}

TEST(RadialScroll, UnboundedAccumulation) {
  RadialScroll technique;
  technique.reset(100, 0);
  technique.on_control(util::Seconds{0.0}, 0.0);
  for (int rev = 1; rev <= 20; ++rev) {
    technique.on_control(util::Seconds{rev * 0.5}, static_cast<double>(rev));
  }
  EXPECT_EQ(technique.cursor(), 99u);  // clamped at the end
}

TEST(RadialScroll, TwoHandedAndGloveHostile) {
  RadialScroll technique;
  EXPECT_FALSE(technique.one_handed());
  EXPECT_GT(technique.glove_sensitivity(), 1.0);
}

}  // namespace
}  // namespace distscroll::baselines
