// Simulated participant profiles.
//
// The paper's initial study covered "students, colleagues and people
// without direct technical background", with and without gloves (the
// motivating scenario). A UserProfile bundles the motor and cognitive
// parameters the closed-loop models consume; glove presets shift them
// the way thick gloves shift real dexterity: slower and noisier fine
// positioning, much worse small-button accuracy, barely affected gross
// arm movement — which is exactly DistScroll's selling point.
#pragma once

#include <string>

#include "human/fitts.h"
#include "human/hand_model.h"

namespace distscroll::human {

enum class Glove : std::uint8_t { None, Thin, Thick };

struct UserProfile {
  std::string name = "participant";
  /// 0 = first contact with the device, 1 = practiced daily user.
  double expertise = 0.3;
  Glove glove = Glove::None;

  // --- cognition -----------------------------------------------------------
  /// Simple visual reaction time to a display change.
  double reaction_time_s = 0.26;
  /// Time to read/verify the highlighted entry before committing.
  double verification_time_s = 0.35;

  // --- gross arm movement (reaching: the DistScroll control) ---------------
  FittsParams reach_fitts{0.10, 0.15};
  /// Endpoint scatter: sigma = w0 + w1 * amplitude (Schmidt's law).
  double aim_w0_cm = 0.25;
  double aim_w1 = 0.05;
  Tremor::Config tremor{};

  // --- fine motor (buttons, stylus, small wheels) ---------------------------
  /// Time for a deliberate button press (down+up).
  double button_press_s = 0.22;
  /// Probability a small-button press misses/slips.
  double button_miss_probability = 0.02;
  /// Multiplier on fine-motor noise and times (gloves >> 1).
  double fine_motor_penalty = 1.0;

  // --- rate-control style (tilt) -------------------------------------------
  /// Max comfortable wrist tilt (radians) and angular speed (rad/s).
  double max_tilt_rad = 0.6;
  double tilt_speed_rad_s = 2.5;

  /// Apply expertise: experts aim tighter, verify faster.
  [[nodiscard]] UserProfile with_expertise(double e) const;
  /// Apply glove effects on top of the current profile.
  [[nodiscard]] UserProfile with_glove(Glove g) const;

  static UserProfile average() { return UserProfile{}.with_expertise(0.5); }
};

/// The practice rule: each completed block closes `rate` of the
/// remaining distance to full expertise (a saturating exponential
/// approach). Sampled populations fold their practice history through
/// it, and the Section 6 device study applies it between blocks.
[[nodiscard]] inline double practice(double expertise, double rate, int blocks = 1) {
  for (int block = 0; block < blocks; ++block) expertise += rate * (1.0 - expertise);
  return expertise;
}

}  // namespace distscroll::human
