// Tests for the "final version" features the paper plans and this
// reproduction implements: dual-sensor fold resolution and the button
// layout ergonomics.
#include <gtest/gtest.h>

#include "core/button_layout.h"
#include "core/distscroll_device.h"
#include "core/dual_sensor.h"
#include "menu/menu_builder.h"
#include "sensors/gp2d120.h"

namespace distscroll::core {
namespace {

// --- DualRangeResolver -------------------------------------------------------

struct DualFixture : ::testing::Test {
  SensorCurve curve{};
  sensors::Gp2d120Model::Config sensor_config = [] {
    sensors::Gp2d120Model::Config c;
    c.output_noise_volts = 0.0;
    return c;
  }();
  sensors::Gp2d120Model primary{sensor_config, sim::Rng(1)};

  DualRangeResolver make() { return DualRangeResolver(curve, curve); }

  std::uint16_t counts_at_true_distance(double d) {
    const double v = primary.ideal_output(util::Centimeters{d}).value;
    return static_cast<std::uint16_t>(v / 5.0 * 1023.0 + 0.5);
  }
};

TEST_F(DualFixture, ResolvesMonotoneBranch) {
  const auto resolver = make();
  for (double d = 5.0; d <= 28.0; d += 3.0) {
    const auto primary_counts = counts_at_true_distance(d);
    const auto secondary_counts = counts_at_true_distance(d + DualRangeResolver::kOffsetCm);
    const auto resolution = resolver.resolve(util::AdcCounts{primary_counts},
                                             util::AdcCounts{secondary_counts});
    ASSERT_TRUE(resolution.has_value()) << d;
    EXPECT_FALSE(resolution->folded) << d;
    EXPECT_NEAR(resolution->distance.value, d, 0.6) << d;
  }
}

TEST_F(DualFixture, ResolvesFoldedBranch) {
  // The single-sensor ambiguity (paper Section 4.2): at 2 cm the primary
  // reads like some distance beyond the peak, but the recessed secondary
  // reveals the truth.
  const auto resolver = make();
  for (double d : {0.8, 1.5, 2.0, 2.8}) {
    const auto primary_counts = counts_at_true_distance(d);
    const auto secondary_counts = counts_at_true_distance(d + DualRangeResolver::kOffsetCm);
    const auto resolution = resolver.resolve(util::AdcCounts{primary_counts},
                                             util::AdcCounts{secondary_counts});
    ASSERT_TRUE(resolution.has_value()) << d;
    EXPECT_TRUE(resolution->folded) << d;
    EXPECT_NEAR(resolution->distance.value, d, 0.6) << d;
  }
}

TEST_F(DualFixture, RejectsInconsistentPair) {
  const auto resolver = make();
  // Primary says 10 cm; secondary claims 30 cm: neither candidate
  // explains it -> glitch, no resolution.
  const auto primary_counts = counts_at_true_distance(10.0);
  const auto secondary_counts = counts_at_true_distance(30.0);
  EXPECT_FALSE(resolver
                   .resolve(util::AdcCounts{primary_counts}, util::AdcCounts{secondary_counts})
                   .has_value());
}

TEST_F(DualFixture, FoldBranchInverseRoundTrip) {
  const auto resolver = make();
  for (double d = 0.5; d < 3.0; d += 0.5) {
    const auto v = primary.ideal_output(util::Centimeters{d});
    const auto back = resolver.fold_branch_distance(v);
    ASSERT_TRUE(back.has_value()) << d;
    EXPECT_NEAR(back->value, d, 0.1) << d;
  }
}

// --- ButtonLayout ergonomics --------------------------------------------------------

TEST(ButtonLayout, ThreeButtonRightFavoursRightHand) {
  const auto rh = ergonomics(ButtonLayout::ThreeButtonRight, Handedness::Right,
                             ButtonAction::Select);
  const auto lh = ergonomics(ButtonLayout::ThreeButtonRight, Handedness::Left,
                             ButtonAction::Select);
  EXPECT_LT(rh.miss_multiplier, lh.miss_multiplier);
  EXPECT_LT(rh.time_multiplier, lh.time_multiplier);
}

TEST(ButtonLayout, SlidableIsHandSymmetric) {
  const auto rh = ergonomics(ButtonLayout::SlidableTwoButton, Handedness::Right,
                             ButtonAction::Select);
  const auto lh = ergonomics(ButtonLayout::SlidableTwoButton, Handedness::Left,
                             ButtonAction::Select);
  EXPECT_DOUBLE_EQ(rh.miss_multiplier, lh.miss_multiplier);
  EXPECT_DOUBLE_EQ(rh.time_multiplier, lh.time_multiplier);
}

TEST(ButtonLayout, SingleButtonBackIsSlowButReliable) {
  const auto select = ergonomics(ButtonLayout::SingleLargeButton, Handedness::Left,
                                 ButtonAction::Select);
  const auto back = ergonomics(ButtonLayout::SingleLargeButton, Handedness::Left,
                               ButtonAction::Back);
  EXPECT_LT(select.miss_multiplier, 1.0);  // big target
  EXPECT_GT(back.time_multiplier, 2.0);    // long press costs time
  EXPECT_LT(back.miss_multiplier, 1.0);
}

// --- device integration: the dual-sensor knobs ---------------------------------------

struct ExtDeviceFixture : ::testing::Test {
  std::unique_ptr<menu::MenuNode> menu_root = menu::MenuBuilder("r")
                                                  .submenu("folder")
                                                  .item("f1")
                                                  .item("f2")
                                                  .end()
                                                  .item("a")
                                                  .item("b")
                                                  .item("c")
                                                  .build();
  sim::EventQueue queue;
  double distance_cm = 17.0;

  std::unique_ptr<DistScrollDevice> make(DistScrollDevice::Config config) {
    auto device = std::make_unique<DistScrollDevice>(config, *menu_root, queue, sim::Rng(11));
    device->set_distance_provider(
        [this](util::Seconds) { return util::Centimeters{distance_cm}; });
    device->power_on();
    return device;
  }

  void settle(double s = 0.5) { queue.run_until(util::Seconds{queue.now().value + s}); }

  static double distance_for_index(const DistScrollDevice& device, std::size_t index) {
    const auto& mapper = device.mapper();
    return mapper.centre_distance(mapper.entries() - 1 - index).value;
  }
};

TEST_F(ExtDeviceFixture, DualSensorKeepsScrollingUnambiguousWhenTooClose) {
  // WITHOUT the second sensor: 0.6 cm aliases to a farther entry
  // (covered in core_device_test). WITH it: the fold is detected, no
  // false selection happens.
  DistScrollDevice::Config config;
  config.use_dual_sensor = true;
  auto device = make(config);
  distance_cm = distance_for_index(*device, 3);
  settle();
  ASSERT_EQ(device->cursor().index(), 3u);
  distance_cm = 0.6;  // deep in the fold zone
  settle(1.0);
  EXPECT_EQ(device->cursor().index(), 3u);  // held, not aliased
}

TEST_F(ExtDeviceFixture, DualSensorDrivesTurboInFoldZone) {
  auto big = menu::make_flat_menu(50);
  menu_root = std::move(big);
  DistScrollDevice::Config config;
  config.use_dual_sensor = true;
  config.enable_fast_scroll = true;
  config.long_menu = LongMenuStrategy::Chunked;
  config.chunk_size = 10;
  auto device = make(config);
  settle();
  ASSERT_EQ(device->current_chunk().value_or(99), 0u);
  distance_cm = 2.0;  // below the peak: folded -> unambiguous turbo
  std::set<std::size_t> seen;
  for (int i = 0; i < 12; ++i) {
    settle(0.06);
    seen.insert(device->current_chunk().value_or(0));
  }
  EXPECT_GT(seen.size(), 1u);
}

}  // namespace
}  // namespace distscroll::core
