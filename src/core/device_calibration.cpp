#include "core/device_calibration.h"

#include <cassert>

namespace distscroll::core {

namespace {
constexpr int kSamplesPerPoint = 6;
/// Dwell per jig position: must exceed the sensor's 38 ms period so
/// every sample is a fresh measurement.
constexpr double kDwellPerSampleS = 60e-3;
constexpr double kMinRSquared = 0.98;  // acceptance threshold
}  // namespace

DeviceCalibrationReport calibrate_device(DistScrollDevice& device, sim::EventQueue& queue,
                                         std::span<const double> jig_distances_cm) {
  assert(jig_distances_cm.size() >= 3);
  DeviceCalibrationReport report;
  const double t0 = queue.now().value;

  // The jig: a fixture holding the device at exact distances.
  double jig_position = jig_distances_cm.front();
  device.set_distance_provider(
      [&jig_position](util::Seconds) { return util::Centimeters{jig_position}; });
  if (!device.powered()) device.power_on();

  std::vector<CalibrationSample> samples;
  samples.reserve(jig_distances_cm.size());
  for (const double d : jig_distances_cm) {
    jig_position = d;
    // Let the sensor's sample-and-hold flush the previous position.
    queue.run_until(util::Seconds{queue.now().value + 0.1});
    double sum = 0.0;
    for (int i = 0; i < kSamplesPerPoint; ++i) {
      queue.run_until(util::Seconds{queue.now().value + kDwellPerSampleS});
      sum += device.last_counts().value;
    }
    samples.push_back(
        {util::Centimeters{d},
         util::AdcCounts{static_cast<std::uint16_t>(sum / kSamplesPerPoint + 0.5)}});
  }

  report.result = calibrate(samples);
  report.accepted = report.result.r_squared >= kMinRSquared;
  if (report.accepted) {
    device.save_calibration_to_eeprom(report.result);
    report.persisted = device.load_calibration_from_eeprom();
  }
  report.duration_s = queue.now().value - t0;
  return report;
}

}  // namespace distscroll::core
