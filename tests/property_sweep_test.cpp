// Parameterized property sweeps across configuration space — broad
// invariants that must hold for EVERY sensible configuration, not just
// the defaults the other suites use.
#include <gtest/gtest.h>

#include <cmath>

#include "core/island_mapper.h"
#include "core/scroll_controller.h"
#include "input/debouncer.h"
#include "sensors/gp2d120.h"

namespace distscroll {
namespace {

// --- island mapper across (entries, range) space --------------------------------

struct MapperCase {
  std::size_t entries;
  double near_cm;
  double far_cm;
};

class MapperSweep : public ::testing::TestWithParam<MapperCase> {};

TEST_P(MapperSweep, TableInvariants) {
  const auto param = GetParam();
  core::SensorCurve curve;
  core::IslandMapper::Config config;
  config.near = util::Centimeters{param.near_cm};
  config.far = util::Centimeters{param.far_cm};
  core::IslandMapper mapper(curve, param.entries, config);

  ASSERT_EQ(mapper.entries(), param.entries);
  // Invariant 1: centres strictly ordered in distance.
  for (std::size_t i = 0; i + 1 < param.entries; ++i) {
    EXPECT_LT(mapper.centre_distance(i).value, mapper.centre_distance(i + 1).value);
  }
  // Invariant 2: islands pairwise disjoint after quantisation.
  for (std::size_t i = 0; i + 1 < param.entries; ++i) {
    EXPECT_GT(mapper.islands()[i].low, mapper.islands()[i + 1].high);
  }
  // Invariant 3: exhaustive lookup agrees with interval containment and
  // is total (never crashes, never out of range).
  for (int c = 0; c <= 1023; ++c) {
    const auto hit = mapper.lookup(util::AdcCounts{static_cast<std::uint16_t>(c)});
    if (hit) {
      ASSERT_LT(*hit, param.entries);
      const auto& island = mapper.islands()[*hit];
      EXPECT_GE(c, island.low);
      EXPECT_LE(c, island.high);
    }
  }
  // Invariant 4: every non-empty island's centre resolves to itself.
  for (std::size_t i = 0; i < param.entries; ++i) {
    const auto& island = mapper.islands()[i];
    if (island.low > island.high) continue;
    EXPECT_EQ(mapper.lookup(util::AdcCounts{island.centre}), i);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ConfigSpace, MapperSweep,
    ::testing::Values(MapperCase{1, 4, 30}, MapperCase{2, 4, 30}, MapperCase{7, 4, 30},
                      MapperCase{15, 4, 30}, MapperCase{40, 4, 30}, MapperCase{64, 4, 30},
                      MapperCase{10, 4, 12}, MapperCase{10, 8, 40}, MapperCase{10, 10, 50},
                      MapperCase{30, 5, 20}));

// --- debouncer across stable-tick settings ---------------------------------------

class DebouncerSweep : public ::testing::TestWithParam<int> {};

TEST_P(DebouncerSweep, ShorterBouncesNeverFire) {
  input::Debouncer::Config config;
  config.stable_ticks = GetParam();
  input::Debouncer debouncer(config);
  int edges = 0;
  // Any alternation faster than stable_ticks must never register.
  for (int i = 0; i < 50 * GetParam(); ++i) {
    edges += debouncer.tick(((i / (GetParam() - 1)) % 2) ? hw::PinLevel::Low : hw::PinLevel::High)
                 ? 1
                 : 0;
  }
  EXPECT_EQ(edges, 0);
  // A real press (>= stable_ticks lows) registers exactly once.
  for (int i = 0; i < 3 * GetParam(); ++i) edges += debouncer.tick(hw::PinLevel::Low) ? 1 : 0;
  EXPECT_EQ(edges, 1);
  EXPECT_TRUE(debouncer.pressed());
}

INSTANTIATE_TEST_SUITE_P(Ticks, DebouncerSweep, ::testing::Values(2, 4, 8, 16, 32));

// --- EMA smoothing convergence across step sizes -----------------------------------

class EmaSweep : public ::testing::TestWithParam<int> {};

TEST_P(EmaSweep, ConvergesWithinBoundedSamples) {
  core::SensorCurve curve;
  core::IslandMapper mapper(curve, 10, {});
  core::ScrollController controller(
      mapper, {core::ScrollDirection::TowardUserScrollsUp, core::Smoothing::Ema});
  const std::size_t from = 0;
  const auto to = static_cast<std::size_t>(GetParam());
  for (int i = 0; i < 5; ++i) {
    (void)controller.on_sample(util::AdcCounts{mapper.islands()[from].centre});
  }
  ASSERT_EQ(controller.selection(), from);
  // alpha = 1/4 EMA: within 30 samples the filtered value is well inside
  // the target island regardless of step size.
  std::optional<std::size_t> selection;
  for (int i = 0; i < 30; ++i) {
    selection = controller.on_sample(util::AdcCounts{mapper.islands()[to].centre}).menu_index;
  }
  EXPECT_EQ(selection, to);
}

INSTANTIATE_TEST_SUITE_P(Steps, EmaSweep, ::testing::Values(1, 2, 4, 6, 9));

// --- sensor model across surfaces: the robustness envelope ---------------------------

class SurfaceSweep : public ::testing::TestWithParam<double> {};

TEST_P(SurfaceSweep, ReflectivityShiftBounded) {
  // Across the full diffuse-reflectivity range the reading shifts by at
  // most a few percent — the paper's "color does nearly not matter".
  sensors::Gp2d120Model::Config config;
  config.output_noise_volts = 0.0;
  sensors::SurfaceProfile surface;
  surface.reflectivity = GetParam();
  sensors::Gp2d120Model sensor(config, sim::Rng(1), surface);
  sensors::Gp2d120Model reference(config, sim::Rng(1), sensors::SurfaceProfile{1.0, 0.0});
  double t = 0.0;
  for (double d = 5.0; d <= 28.0; d += 4.0) {
    t += 0.05;
    const double v = sensor.output(util::Centimeters{d}, util::Seconds{t}).value;
    const double ref = reference.output(util::Centimeters{d}, util::Seconds{t}).value;
    EXPECT_LT(std::abs(v - ref) / ref, 0.04) << "d=" << d;
  }
}

INSTANTIATE_TEST_SUITE_P(Reflectivity, SurfaceSweep,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.9, 1.1));

// --- scroll controller: filtered output equals mapper verdict ------------------------

TEST(ControllerProperty, RawModeMatchesStatelessLookupPlusStickiness) {
  // Property over a random count walk: in Raw mode with zero hysteresis
  // the controller's island selection is exactly "last island the raw
  // lookup hit".
  core::SensorCurve curve;
  core::IslandMapper mapper(curve, 12, {});
  core::ScrollController controller(
      mapper, {core::ScrollDirection::TowardUserScrollsUp, core::Smoothing::Raw});
  sim::Rng rng(99);
  std::optional<std::size_t> expected;
  for (int i = 0; i < 5000; ++i) {
    const auto counts = util::AdcCounts{static_cast<std::uint16_t>(rng.uniform_int(0, 1023))};
    if (const auto hit = mapper.lookup(counts)) expected = hit;
    const auto update = controller.on_sample(counts);
    ASSERT_EQ(update.menu_index, expected) << "sample " << i;
  }
}

}  // namespace
}  // namespace distscroll
