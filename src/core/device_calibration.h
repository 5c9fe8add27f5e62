// In-situ device calibration.
//
// The paper's curve (Fig. 4/5) was measured per prototype: "These
// properties ... were verified in different light conditions and with
// different clothing as surfaces in front of the sensor." This module
// packages that procedure as a firmware workflow: the device is placed
// on a reference jig, swept through known distances, samples are
// collected through the NORMAL sensing path (sensor -> ADC -> firmware),
// the idealised curve is fitted, validated, persisted to EEPROM and
// activated.
#pragma once

#include <span>

#include "core/calibration.h"
#include "core/distscroll_device.h"

namespace distscroll::core {

struct DeviceCalibrationReport {
  CalibrationResult result{};
  bool accepted = false;   // fit quality above threshold
  bool persisted = false;  // written to EEPROM and re-loaded
  double duration_s = 0.0; // simulated time the procedure took
};

/// Run the calibration procedure: six samples per jig position, 60 ms
/// apart, accepted at R^2 >= 0.98. Temporarily owns the device's
/// distance provider (the jig); the caller re-attaches the hand
/// afterwards. On acceptance the curve is saved to EEPROM and applied.
[[nodiscard]] DeviceCalibrationReport calibrate_device(DistScrollDevice& device,
                                                       sim::EventQueue& queue,
                                                       std::span<const double> jig_distances_cm);

}  // namespace distscroll::core
