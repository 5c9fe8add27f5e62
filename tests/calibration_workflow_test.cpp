// Tests for the in-situ calibration workflow (jig sweep -> fit ->
// EEPROM -> activate) and the fatigue model.
#include <gtest/gtest.h>

#include "core/device_calibration.h"
#include "human/fatigue.h"
#include "menu/menu_builder.h"

namespace distscroll {
namespace {

struct CalibrationFixture : ::testing::Test {
  std::unique_ptr<menu::MenuNode> menu_root = menu::make_flat_menu(6);
  sim::EventQueue queue;

  std::unique_ptr<core::DistScrollDevice> make(double sensor_a = 10.4, double sensor_k = 0.6) {
    core::DistScrollDevice::Config config;
    // A unit-to-unit sensor variation the calibration must capture.
    config.sensor.curve_a = sensor_a;
    config.sensor.curve_k = sensor_k;
    return std::make_unique<core::DistScrollDevice>(config, *menu_root, queue, sim::Rng(31));
  }

  static std::vector<double> jig() {
    std::vector<double> distances;
    for (double d = 4.0; d <= 30.0; d += 2.0) distances.push_back(d);
    return distances;
  }
};

TEST_F(CalibrationFixture, ProcedureFitsAndPersists) {
  auto device = make();
  const auto report = core::calibrate_device(*device, queue, jig());
  EXPECT_TRUE(report.accepted);
  EXPECT_TRUE(report.persisted);
  EXPECT_GT(report.result.r_squared, 0.98);
  EXPECT_NEAR(report.result.curve.params().a, 10.4, 1.5);
  // The procedure takes realistic bench time (>= dwell * points).
  EXPECT_GT(report.duration_s, 4.0);
  EXPECT_LT(report.duration_s, 60.0);
}

TEST_F(CalibrationFixture, CapturesUnitVariation) {
  // A sensor that reads 15% hot: the calibrated curve must follow the
  // unit, not the datasheet default.
  auto device = make(/*sensor_a=*/12.0, /*sensor_k=*/0.9);
  const auto report = core::calibrate_device(*device, queue, jig());
  ASSERT_TRUE(report.accepted);
  EXPECT_NEAR(report.result.curve.params().a, 12.0, 1.8);
  // And the device's live mapping now uses it.
  EXPECT_NEAR(device->curve().params().a, report.result.curve.params().a, 1e-6);
}

TEST_F(CalibrationFixture, CalibratedDeviceScrollsAccurately) {
  auto device = make(12.0, 0.9);
  (void)core::calibrate_device(*device, queue, jig());
  double distance = 17.0;
  device->set_distance_provider([&](util::Seconds) { return util::Centimeters{distance}; });
  // Every island centre must select its own entry through the live path.
  for (std::size_t island = 0; island < device->mapper().entries(); ++island) {
    distance = device->mapper().centre_distance(island).value;
    queue.run_until(util::Seconds{queue.now().value + 0.5});
    const std::size_t expected = device->mapper().entries() - 1 - island;
    EXPECT_EQ(device->cursor().index(), expected) << "island " << island;
  }
}

TEST_F(CalibrationFixture, SurvivesPowerCycle) {
  auto device = make(11.5, 0.7);
  (void)core::calibrate_device(*device, queue, jig());
  const double calibrated_a = device->curve().params().a;
  // "Battery change": new device object, same EEPROM contents.
  core::DistScrollDevice::Config config;
  core::DistScrollDevice fresh(config, *menu_root, queue, sim::Rng(32));
  // Move the EEPROM record over (same physical chip).
  const auto record = device->eeprom().read_block(core::CalibrationStore::kBaseAddress,
                                                  core::CalibrationStore::kRecordSize);
  fresh.eeprom().write_block(core::CalibrationStore::kBaseAddress, record);
  EXPECT_TRUE(fresh.load_calibration_from_eeprom());
  EXPECT_NEAR(fresh.curve().params().a, calibrated_a, 1e-4);
}

// --- fatigue ------------------------------------------------------------------

TEST(Fatigue, AccruesAndRecovers) {
  human::FatigueModel fatigue;
  fatigue.accrue(300.0, human::FatigueModel::kWristTiltRate);  // 5 min of tilting
  const double after = fatigue.level();
  EXPECT_GT(after, 0.5);
  fatigue.rest(60.0);
  EXPECT_LT(fatigue.level(), after);
  fatigue.rest(1e6);
  EXPECT_DOUBLE_EQ(fatigue.level(), 0.0);
}

TEST(Fatigue, SaturatesAtCap) {
  human::FatigueModel fatigue;
  fatigue.accrue(1e6, human::FatigueModel::kWristTiltRate);
  EXPECT_DOUBLE_EQ(fatigue.level(), 1.0);
}

TEST(Fatigue, PostureRatesOrdered) {
  // Wrist deviation > arm extension > strokes > buttons — the ordering
  // behind the paper's critique of tilt.
  using human::FatigueModel;
  EXPECT_GT(FatigueModel::kWristTiltRate, FatigueModel::kArmExtensionRate);
  EXPECT_GT(FatigueModel::kArmExtensionRate, FatigueModel::kStrokeRate);
  EXPECT_GT(FatigueModel::kStrokeRate, FatigueModel::kButtonRate);
}

TEST(Fatigue, AppliedProfileDegrades) {
  human::FatigueModel fatigue;
  fatigue.accrue(120.0, human::FatigueModel::kWristTiltRate);
  const auto base = human::UserProfile::average();
  const auto tired = fatigue.apply(base);
  EXPECT_GT(tired.tremor.amplitude_cm, base.tremor.amplitude_cm);
  EXPECT_GT(tired.reach_fitts.b_seconds_per_bit, base.reach_fitts.b_seconds_per_bit);
  EXPECT_GT(tired.button_press_s, base.button_press_s);
}

TEST(Fatigue, FreshModelIsNeutral) {
  const human::FatigueModel fatigue;
  const auto base = human::UserProfile::average();
  const auto applied = fatigue.apply(base);
  EXPECT_DOUBLE_EQ(applied.tremor.amplitude_cm, base.tremor.amplitude_cm);
  EXPECT_DOUBLE_EQ(applied.reach_fitts.b_seconds_per_bit, base.reach_fitts.b_seconds_per_bit);
}

}  // namespace
}  // namespace distscroll
