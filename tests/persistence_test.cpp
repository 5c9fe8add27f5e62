// Tests for the EEPROM model, calibration persistence and
// battery-brownout behaviour — the "survives the field"
// layer of the prototype.
#include <gtest/gtest.h>

#include <vector>

#include "core/calibration_store.h"
#include "core/distscroll_device.h"
#include "hw/eeprom.h"
#include "menu/menu_builder.h"

namespace distscroll {
namespace {

// --- EEPROM ------------------------------------------------------------------

TEST(Eeprom, ErasedStateIsFF) {
  hw::Eeprom eeprom;
  EXPECT_EQ(eeprom.read_block(0, hw::Eeprom::kSize),
            std::vector<std::uint8_t>(hw::Eeprom::kSize, 0xFF));
}

TEST(Eeprom, WriteReadBack) {
  hw::Eeprom eeprom;
  const auto t = eeprom.write(10, 0x42);
  EXPECT_EQ(eeprom.read_block(10, 1), std::vector<std::uint8_t>{0x42});
  EXPECT_DOUBLE_EQ(t.value, hw::Eeprom::kWriteTime.value);
}

TEST(Eeprom, BlockOperationsAndWear) {
  hw::Eeprom eeprom;
  const std::uint8_t data[] = {1, 2, 3, 4};
  const auto t = eeprom.write_block(100, data);
  EXPECT_DOUBLE_EQ(t.value, 4 * hw::Eeprom::kWriteTime.value);
  EXPECT_EQ(eeprom.read_block(100, 4), (std::vector<std::uint8_t>{1, 2, 3, 4}));
  EXPECT_EQ(eeprom.total_writes(), 4u);
}

TEST(Eeprom, CorruptFlipsBits) {
  hw::Eeprom eeprom;
  sim::Rng rng(1);
  eeprom.corrupt(rng, 8);
  int changed = 0;
  for (const std::uint8_t cell : eeprom.read_block(0, hw::Eeprom::kSize)) {
    if (cell != 0xFF) ++changed;
  }
  EXPECT_GT(changed, 0);
  EXPECT_LE(changed, 8);
}

// --- calibration store -------------------------------------------------------------

core::CalibrationResult sample_calibration() {
  core::CalibrationResult calibration;
  calibration.curve = core::SensorCurve({10.9, 0.81, -0.02});
  calibration.usable_near = util::Centimeters{4.2};
  calibration.usable_far = util::Centimeters{29.5};
  return calibration;
}

TEST(CalibrationStore, RoundTrip) {
  hw::Eeprom eeprom;
  core::CalibrationStore::save(eeprom, sample_calibration());
  const auto loaded = core::CalibrationStore::load(eeprom);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_NEAR(loaded->curve.params().a, 10.9, 1e-4);
  EXPECT_NEAR(loaded->curve.params().k, 0.81, 1e-4);
  EXPECT_NEAR(loaded->curve.params().c, -0.02, 1e-4);
  EXPECT_NEAR(loaded->usable_near.value, 4.2, 1e-4);
  EXPECT_NEAR(loaded->usable_far.value, 29.5, 1e-4);
}

TEST(CalibrationStore, FreshEepromHasNoRecord) {
  hw::Eeprom eeprom;
  EXPECT_FALSE(core::CalibrationStore::load(eeprom).has_value());
}

TEST(CalibrationStore, DetectsCorruption) {
  // Property: any single bit flip inside the record is caught.
  for (std::size_t byte = 0; byte < core::CalibrationStore::kRecordSize; ++byte) {
    hw::Eeprom eeprom;
    core::CalibrationStore::save(eeprom, sample_calibration());
    const auto address = core::CalibrationStore::kBaseAddress + byte;
    eeprom.write(address, eeprom.read_block(address, 1)[0] ^ 0x04);
    EXPECT_FALSE(core::CalibrationStore::load(eeprom).has_value()) << "byte " << byte;
  }
}

TEST(CalibrationStore, RejectsWrongVersion) {
  hw::Eeprom eeprom;
  core::CalibrationStore::save(eeprom, sample_calibration());
  eeprom.write(core::CalibrationStore::kBaseAddress + 2, 99);  // version byte
  EXPECT_FALSE(core::CalibrationStore::load(eeprom).has_value());
}

// --- device boot with calibration ----------------------------------------------------

TEST(DeviceCalibration, BootLoadsPersistedCurve) {
  auto menu_root = menu::make_flat_menu(5);
  sim::EventQueue queue;
  core::DistScrollDevice device({}, *menu_root, queue, sim::Rng(5));
  EXPECT_FALSE(device.load_calibration_from_eeprom());  // fresh EEPROM

  auto calibration = sample_calibration();
  device.save_calibration_to_eeprom(calibration);
  EXPECT_TRUE(device.load_calibration_from_eeprom());
  // The island table now derives from the stored curve and range.
  EXPECT_NEAR(device.mapper().config().far.value, 29.5, 1e-3);
}

TEST(DeviceCalibration, CorruptRecordFallsBackToDefaults) {
  auto menu_root = menu::make_flat_menu(5);
  sim::EventQueue queue;
  core::DistScrollDevice device({}, *menu_root, queue, sim::Rng(6));
  device.save_calibration_to_eeprom(sample_calibration());
  sim::Rng rng(7);
  device.eeprom().corrupt(rng, 40);
  // With heavy corruption the record is (almost surely) invalid; the
  // device must still function on the default curve.
  const bool loaded = device.load_calibration_from_eeprom();
  device.power_on();
  device.set_distance_provider([](util::Seconds) { return util::Centimeters{17.0}; });
  queue.run_until(util::Seconds{0.5});
  EXPECT_TRUE(device.controller().selection().has_value());
  (void)loaded;  // either way the device works
}

// --- brownout -------------------------------------------------------------------------

TEST(Brownout, DeviceShutsDownOnDepletedBattery) {
  auto menu_root = menu::make_flat_menu(5);
  sim::EventQueue queue;
  core::DistScrollDevice::Config config;
  config.board.battery.capacity_mah = 0.02;  // seconds of life
  core::DistScrollDevice device(config, *menu_root, queue, sim::Rng(9));
  device.set_distance_provider([](util::Seconds) { return util::Centimeters{17.0}; });
  device.power_on();
  queue.run_until(util::Seconds{10.0});
  EXPECT_FALSE(device.powered());
  // Nothing keeps running afterwards.
  const auto cycles = device.board().mcu().cycles();
  queue.run_until(util::Seconds{12.0});
  EXPECT_EQ(device.board().mcu().cycles(), cycles);
}

}  // namespace
}  // namespace distscroll
