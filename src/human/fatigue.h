// Muscular fatigue accumulation.
//
// The paper's critique of tilt input: "using this input method for a
// longer period of time is fatiguing" (Section 2). Distance scrolling
// holds the arm extended instead — also effortful. This model makes the
// argument quantitative: each technique accrues fatigue at a
// posture-specific rate while operating, recovers at rest, and the
// fatigue level feeds back into the motor parameters (tremor grows,
// movements slow) the way sustained isometric load actually degrades
// pointing.
#pragma once

#include <algorithm>

#include "human/user_profile.h"

namespace distscroll::human {

class FatigueModel {
 public:
  /// Effort accrual in fatigue-units/second of active use, tuned so a
  /// 15-minute continuous session approaches (but does not instantly
  /// hit) saturation for the worst posture.
  static constexpr double kWristTiltRate = 0.0035;     // sustained wrist deviation: worst
  static constexpr double kArmExtensionRate = 0.0019;  // holding the arm out (DistScroll)
  static constexpr double kStrokeRate = 0.0011;        // repeated pulls (YoYo wheel)
  static constexpr double kButtonRate = 0.0003;        // thumb presses: least

  [[nodiscard]] double level() const { return level_; }

  /// Accrue `seconds` of active effort at `rate` (one of the posture
  /// rates above), minus the concurrent recovery.
  void accrue(double seconds, double rate) {
    level_ = std::clamp(level_ + seconds * rate, 0.0, kCap);
  }

  /// Rest for `seconds`.
  void rest(double seconds) {
    level_ = std::max(0.0, level_ - seconds * kRecoveryRate);
  }

  [[nodiscard]] double tremor_multiplier() const { return 1.0 + kTremorGain * level_; }
  [[nodiscard]] double time_multiplier() const { return 1.0 + kSlowdownGain * level_; }

  /// A profile with the current fatigue applied. Degrades every motor
  /// pathway the planner uses: aimed reaches (Fitts slope, aim scatter,
  /// tremor), rate control (wrist speed, wobble via fine_motor_penalty)
  /// and presses.
  [[nodiscard]] UserProfile apply(const UserProfile& base) const {
    UserProfile fatigued = base;
    fatigued.tremor.amplitude_cm *= tremor_multiplier();
    fatigued.reach_fitts.b_seconds_per_bit *= time_multiplier();
    fatigued.aim_w0_cm *= tremor_multiplier();
    fatigued.aim_w1 *= tremor_multiplier();
    fatigued.button_press_s *= time_multiplier();
    fatigued.tilt_speed_rad_s /= time_multiplier();
    fatigued.fine_motor_penalty *= time_multiplier();
    return fatigued;
  }

 private:
  /// Recovery in units/second at rest.
  static constexpr double kRecoveryRate = 0.0009;
  /// Feedback gains per fatigue unit.
  static constexpr double kTremorGain = 1.2;    // tremor amplitude multiplier slope
  static constexpr double kSlowdownGain = 0.6;  // movement-speed multiplier slope
  static constexpr double kCap = 1.0;           // saturation

  double level_ = 0.0;
};

}  // namespace distscroll::human
