// Per-unit calibration workflow (the procedure behind Fig. 4/5, as
// firmware): place the device on a reference jig, sweep known
// distances, fit the idealised curve, persist it to the PIC's data
// EEPROM, and verify it survives a "battery change".
#include <cstdio>

#include "core/device_calibration.h"
#include "menu/phone_menu.h"

using namespace distscroll;

int main() {
  auto menu_root = menu::make_phone_menu();
  sim::EventQueue queue;

  // This unit's sensor reads ~12% hot vs the datasheet — exactly why
  // per-unit calibration exists.
  core::DistScrollDevice::Config config;
  config.sensor.curve_a = 11.6;
  config.sensor.curve_k = 0.75;
  core::DistScrollDevice device(config, *menu_root, queue, sim::Rng(123));

  std::printf("=== DistScroll per-unit calibration ===\n\n");
  std::printf("factory default curve: V(d) = %.2f/(d + %.2f) + %.2f\n",
              device.curve().params().a, device.curve().params().k,
              device.curve().params().c);
  std::printf("this unit's actual sensor: a=%.2f k=%.2f (reads hot)\n\n", 11.6, 0.75);

  std::vector<double> jig;
  for (double d = 4.0; d <= 30.0; d += 2.0) jig.push_back(d);
  std::printf("sweeping the reference jig: %zu positions, 6 samples each...\n", jig.size());
  const auto report = core::calibrate_device(device, queue, jig);

  std::printf("fitted: V(d) = %.2f/(d + %.2f) + %.2f   R^2 = %.4f\n",
              report.result.curve.params().a, report.result.curve.params().k,
              report.result.curve.params().c, report.result.r_squared);
  std::printf("usable range: %.1f .. %.1f cm\n", report.result.usable_near.value,
              report.result.usable_far.value);
  std::printf("accepted: %s   persisted to EEPROM: %s   took %.1f s\n\n",
              report.accepted ? "yes" : "NO", report.persisted ? "yes" : "NO",
              report.duration_s);

  // "Battery change": a fresh device object booting from the same
  // EEPROM contents.
  core::DistScrollDevice fresh({}, *menu_root, queue, sim::Rng(124));
  const auto record = device.eeprom().read_block(core::CalibrationStore::kBaseAddress,
                                                 core::CalibrationStore::kRecordSize);
  fresh.eeprom().write_block(core::CalibrationStore::kBaseAddress, record);
  if (fresh.load_calibration_from_eeprom()) {
    std::printf("after battery change: calibration restored from EEPROM\n");
    std::printf("  curve a=%.2f (calibrated) vs %.2f (datasheet default)\n",
                fresh.curve().params().a, core::SensorCurve().params().a);
  }
  std::printf("EEPROM writes so far: %llu (record is %zu bytes)\n",
              static_cast<unsigned long long>(device.eeprom().total_writes()),
              core::CalibrationStore::kRecordSize);
  return 0;
}
