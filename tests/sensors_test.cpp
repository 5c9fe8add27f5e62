// Unit + property tests for the sensor models: every GP2D120 behaviour
// the paper relies on (Section 4.2) is pinned here.
#include <gtest/gtest.h>

#include <cmath>

#include "sensors/adxl311.h"
#include "sensors/gp2d120.h"
#include "util/rounding.h"

namespace distscroll::sensors {
namespace {

Gp2d120Model::Config quiet_config() {
  Gp2d120Model::Config config;
  config.output_noise_volts = 0.0;
  return config;
}

// --- GP2D120: transfer curve shape ------------------------------------------

TEST(Gp2d120, MonotoneDecreasingBeyondPeak) {
  Gp2d120Model sensor(quiet_config(), sim::Rng(1));
  double prev = 1e9;
  for (double d = 3.5; d <= 30.0; d += 0.5) {
    const double v = sensor.ideal_output(util::Centimeters{d}).value;
    EXPECT_LT(v, prev) << "not monotone at " << d;
    prev = v;
  }
}

TEST(Gp2d120, NonMonotonicBelowPeak) {
  // "If the user moves the device too close, the values decline again."
  Gp2d120Model sensor(quiet_config(), sim::Rng(1));
  const double at_peak = sensor.ideal_output(util::Centimeters{3.2}).value;
  const double closer = sensor.ideal_output(util::Centimeters{1.5}).value;
  const double touching = sensor.ideal_output(util::Centimeters{0.0}).value;
  EXPECT_LT(closer, at_peak);
  EXPECT_LT(touching, closer);
}

TEST(Gp2d120, NearBranchSteeperThanFarBranch) {
  // "the much faster declining sensor values between 0 and 4 cms" —
  // the basis of expert fast scrolling.
  Gp2d120Model sensor(quiet_config(), sim::Rng(1));
  const double near_slope =
      std::abs(sensor.ideal_output(util::Centimeters{2.0}).value -
               sensor.ideal_output(util::Centimeters{3.0}).value);  // per cm
  const double far_slope =
      std::abs(sensor.ideal_output(util::Centimeters{20.0}).value -
               sensor.ideal_output(util::Centimeters{21.0}).value);
  EXPECT_GT(near_slope, 5.0 * far_slope);
}

TEST(Gp2d120, OutOfRangeFloorsToMinimum) {
  Gp2d120Model sensor(quiet_config(), sim::Rng(1));
  EXPECT_DOUBLE_EQ(sensor.ideal_output(util::Centimeters{35.0}).value,
                   Gp2d120Model::kMinOutputVolts);
  EXPECT_DOUBLE_EQ(sensor.ideal_output(util::Centimeters{100.0}).value,
                   Gp2d120Model::kMinOutputVolts);
}

TEST(Gp2d120, PaperRangeValuesPlausible) {
  // Datasheet sanity: ~2.25 V at 4 cm, ~0.9..1.1 V at 10 cm, ~0.4 V at 30 cm.
  Gp2d120Model sensor(quiet_config(), sim::Rng(1));
  EXPECT_NEAR(sensor.ideal_output(util::Centimeters{4.0}).value, 2.26, 0.1);
  EXPECT_NEAR(sensor.ideal_output(util::Centimeters{10.0}).value, 0.98, 0.15);
  EXPECT_NEAR(sensor.ideal_output(util::Centimeters{30.0}).value, 0.35, 0.1);
}

// --- GP2D120: ambiguity property ----------------------------------------------

TEST(Gp2d120, NearFarAmbiguityExists) {
  // Below ~4 cm the output folds back into the normal range: the value
  // at 2 cm matches some distance beyond the peak. The firmware cannot
  // tell them apart — the paper tolerates this.
  Gp2d120Model sensor(quiet_config(), sim::Rng(1));
  const double v_near = sensor.ideal_output(util::Centimeters{2.0}).value;
  bool found_alias = false;
  for (double d = 3.2; d < 31.0; d += 0.05) {
    if (std::abs(sensor.ideal_output(util::Centimeters{d}).value - v_near) < 0.02) {
      found_alias = true;
      break;
    }
  }
  EXPECT_TRUE(found_alias);
}

// --- GP2D120: sampling behaviour -------------------------------------------------

TEST(Gp2d120, SampleAndHoldAtMeasurementPeriod) {
  Gp2d120Model sensor(quiet_config(), sim::Rng(1));
  double moving = 10.0;
  // First read establishes the held value.
  const double v0 = sensor.output(util::Centimeters{moving}, util::Seconds{0.0}).value;
  // The target moves, but within the same 38 ms window the output holds.
  moving = 20.0;
  const double v1 = sensor.output(util::Centimeters{moving}, util::Seconds{0.010}).value;
  EXPECT_DOUBLE_EQ(v0, v1);
  // After the period elapses the new distance shows up.
  const double v2 = sensor.output(util::Centimeters{moving}, util::Seconds{0.050}).value;
  EXPECT_LT(v2, v0);
}

TEST(Gp2d120, NoiseIsBounded) {
  Gp2d120Model sensor({}, sim::Rng(7));
  double t = 0.0;
  for (int i = 0; i < 200; ++i) {
    t += 0.04;
    const double v = sensor.output(util::Centimeters{15.0}, util::Seconds{t}).value;
    EXPECT_NEAR(v, 10.4 / 15.6, 0.08);
  }
}

// --- GP2D120: surface dependence (the paper's key robustness claim) --------------

TEST(Gp2d120, NearlyColorIndependent) {
  // "the color (the reflectivity) of the object ... does nearly not
  // matter": white vs dark fleece differ by only a few percent.
  Gp2d120Model white(quiet_config(), sim::Rng(1), SurfaceProfile{0.9, 0.0});  // white shirt
  Gp2d120Model dark(quiet_config(), sim::Rng(1), SurfaceProfile{0.12, 0.0});  // dark fleece
  double t = 0.0;
  double max_rel = 0.0;
  for (double d = 5.0; d <= 28.0; d += 3.0) {
    t += 0.05;
    const double vw = white.output(util::Centimeters{d}, util::Seconds{t}).value;
    const double vd = dark.output(util::Centimeters{d}, util::Seconds{t}).value;
    max_rel = std::max(max_rel, std::abs(vw - vd) / vw);
  }
  EXPECT_LT(max_rel, 0.05);
}

TEST(Gp2d120, ReflectiveBoundariesGlitch) {
  // "Potentially problematic could be reflective surfaces with clear
  // boundaries" — glitches read as out-of-range.
  Gp2d120Model vest(quiet_config(), sim::Rng(3), SurfaceProfile{1.0, 0.12});  // reflective vest
  int glitches = 0;
  double t = 0.0;
  for (int i = 0; i < 500; ++i) {
    t += 0.04;
    const double v = vest.output(util::Centimeters{15.0}, util::Seconds{t}).value;
    if (v <= Gp2d120Model::kMinOutputVolts + 1e-9) ++glitches;
  }
  // ~12% glitch probability configured.
  EXPECT_GT(glitches, 20);
  EXPECT_LT(glitches, 150);
}

TEST(Gp2d120, OrdinaryClothingNeverGlitches) {
  Gp2d120Model shirt(quiet_config(), sim::Rng(3), SurfaceProfile{0.9, 0.0});  // white shirt
  double t = 0.0;
  for (int i = 0; i < 500; ++i) {
    t += 0.04;
    const double v = shirt.output(util::Centimeters{15.0}, util::Seconds{t}).value;
    EXPECT_GT(v, Gp2d120Model::kMinOutputVolts + 0.1);
  }
}

TEST(Gp2d120, AnalogSourceWrapperTracksProvider) {
  Gp2d120Model sensor(quiet_config(), sim::Rng(1));
  double distance = 8.0;
  auto source = sensor.as_analog_source(
      [&](util::Seconds) { return util::Centimeters{distance}; });
  const double v8 = source(util::Seconds{0.0}).value;
  distance = 25.0;
  const double v25 = source(util::Seconds{1.0}).value;
  EXPECT_GT(v8, v25);
}

// --- parameterized sweep: quantised monotonicity over the usable range ---------

class Gp2d120MonotoneSweep : public ::testing::TestWithParam<double> {};

TEST_P(Gp2d120MonotoneSweep, StrictlyDecreasingStep) {
  const double d = GetParam();
  Gp2d120Model sensor(quiet_config(), sim::Rng(1));
  const double v0 = sensor.ideal_output(util::Centimeters{d}).value;
  const double v1 = sensor.ideal_output(util::Centimeters{d + 1.0}).value;
  EXPECT_GT(v0, v1);
  // The per-cm step must exceed 1 ADC LSB (5 V / 1023) so neighbouring
  // centimetres stay distinguishable — the premise of island mapping.
  EXPECT_GT(v0 - v1, util::adc10_volts(util::AdcCounts{1}).value);
}

INSTANTIATE_TEST_SUITE_P(UsableRange, Gp2d120MonotoneSweep,
                         ::testing::Values(4.0, 6.0, 8.0, 10.0, 12.0, 15.0, 18.0, 21.0, 24.0,
                                           27.0, 29.0));

// --- ADXL311 -------------------------------------------------------------------

TEST(Adxl311, ZeroTiltReadsMidSupply) {
  Adxl311Model::Config config;
  config.noise_volts = 0.0;
  Adxl311Model accel(config, sim::Rng(1));
  EXPECT_NEAR(accel.output_x(util::Radians{0.0}).value, 1.5, 1e-9);
}

TEST(Adxl311, TiltShiftsBySensitivity) {
  Adxl311Model::Config config;
  config.noise_volts = 0.0;
  Adxl311Model accel(config, sim::Rng(1));
  const double v90 = accel.output_x(util::Radians{3.14159265 / 2.0}).value;
  EXPECT_NEAR(v90, 1.5 + 0.174, 1e-6);
  const double vm90 = accel.output_x(util::Radians{-3.14159265 / 2.0}).value;
  EXPECT_NEAR(vm90, 1.5 - 0.174, 1e-6);
}

TEST(Adxl311, TiltRoundTrip) {
  Adxl311Model::Config config;
  config.noise_volts = 0.0;
  Adxl311Model accel(config, sim::Rng(1));
  for (double angle = -1.2; angle <= 1.2; angle += 0.3) {
    const auto v = accel.output_x(util::Radians{angle});
    EXPECT_NEAR(accel.tilt_from_volts(v).value, angle, 1e-6) << angle;
  }
}

TEST(Adxl311, DynamicAccelerationAdds) {
  Adxl311Model::Config config;
  config.noise_volts = 0.0;
  Adxl311Model accel(config, sim::Rng(1));
  const double still = accel.output_x(util::Radians{0.0}).value;
  const double moving = accel.output_x(util::Radians{0.0}, util::Gs{0.5}).value;
  EXPECT_NEAR(moving - still, 0.5 * 0.174, 1e-9);
}

TEST(Adxl311, InverseClampsBeyondOneG) {
  Adxl311Model::Config config;
  config.noise_volts = 0.0;
  Adxl311Model accel(config, sim::Rng(1));
  // 2 g reading (shake) must not blow up the asin.
  const auto tilt = accel.tilt_from_volts(util::Volts{1.5 + 2.0 * 0.174});
  EXPECT_NEAR(tilt.value, 3.14159265 / 2.0, 1e-6);
}

}  // namespace
}  // namespace distscroll::sensors
