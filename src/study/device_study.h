// Full-device user study (reproduction of paper Section 6).
//
// Unlike the abstract-technique trials, this harness runs the REAL
// DistScrollDevice — firmware timers, ADC, displays, debounced buttons,
// telemetry — on the event queue, co-simulated with a HandModel-driven
// participant who navigates the fictive phone menu to target leaves.
// It reproduces the study protocol: hand the device over, let the user
// discover the operation, then run blocks of selection trials and watch
// errors drop to "nearly errorless".
#pragma once

#include <string>
#include <vector>

#include "human/user_profile.h"
#include "menu/menu.h"
#include "sim/random.h"

namespace distscroll::study {

struct DeviceTrialResult {
  bool success = false;
  double time_s = 0.0;
  int wrong_activations = 0;  // wrong leaf selected / wrong submenu entered
  int reaim_count = 0;
};

struct DeviceBlockResult {
  std::size_t block = 0;
  double expertise = 0.0;
  double success_rate = 0.0;
  double mean_time_s = 0.0;
  double errors_per_trial = 0.0;

  friend bool operator==(const DeviceBlockResult&, const DeviceBlockResult&) = default;
};

struct DeviceParticipantResult {
  std::string name;
  double discovery_time_s = 0.0;  // time to discover the operation
  std::vector<DeviceBlockResult> blocks;
};

/// Per-block practice gain of a device-study participant
/// (human::practice), applied after every block.
inline constexpr double kDeviceLearningRate = 0.35;

/// Every participant runs the default device (the paper's prototype).
struct DeviceStudyConfig {
  std::size_t blocks = 4;
  std::size_t trials_per_block = 10;
};

/// A leaf target expressed as the index path from the root level.
struct MenuTarget {
  std::vector<std::size_t> path;
  std::string label;
};

/// Collect all leaf targets of a menu.
[[nodiscard]] std::vector<MenuTarget> all_leaf_targets(const menu::MenuNode& root);

/// Run one participant through discovery + blocks on a freshly
/// constructed device.
[[nodiscard]] DeviceParticipantResult run_device_participant(const menu::MenuNode& menu_root,
                                                             human::UserProfile profile,
                                                             const DeviceStudyConfig& config,
                                                             sim::Rng rng);

}  // namespace distscroll::study
