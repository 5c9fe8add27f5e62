// Arm-extension kinematics along the reach axis.
//
// The DistScroll control movement is moving the device toward/away from
// the body (paper Fig. 1). Voluntary reaches follow minimum-jerk
// profiles (Flash & Hogan); physiological tremor (8..12 Hz, fractions of
// a millimetre to ~2 mm at the hand, more with fatigue or thick gloves'
// grip slack) rides on top. HandModel produces the continuous true
// distance d(t) the GP2D120 sees.
#pragma once

#include <algorithm>
#include <cmath>

#include "sim/random.h"
#include "util/units.h"

namespace distscroll::human {

/// Minimum-jerk position profile from x0 to x1 over duration T:
/// x(s) = x0 + (x1-x0) * (10 s^3 - 15 s^4 + 6 s^5), s = t/T in [0,1].
[[nodiscard]] inline double min_jerk(double x0, double x1, double t, double duration) {
  if (duration <= 0.0 || t >= duration) return x1;
  if (t <= 0.0) return x0;
  const double s = t / duration;
  const double shape = s * s * s * (10.0 - 15.0 * s + 6.0 * s * s);
  return x0 + (x1 - x0) * shape;
}

class Tremor {
 public:
  struct Config {
    double frequency_hz = 9.0;       // physiological tremor band centre
    double amplitude_cm = 0.08;      // hand-held device, relaxed grip
    /// Cycle-to-cycle amplitude variation. A test seam: tests set it to 0
    /// for a pure sinusoid, or raise it to stress the amplitude stream.
    double amplitude_jitter = 0.3;
  };

  Tremor(Config config, sim::Rng rng) : config_(config), rng_(rng) {
    phase_ = rng_.uniform(0.0, 2.0 * 3.14159265358979);
  }

  /// Tremor displacement at simulated time t: advance(t), then at(t)
  /// with the amplitude that leaves.
  [[nodiscard]] double displacement_cm(double t_seconds) {
    advance(t_seconds);
    return at(t_seconds, amplitude());
  }

  /// Move the tremor clock to t: draws the cycle's amplitude when t
  /// enters a new cycle. A caller that skips evaluating some times must
  /// still advance through each of them, so the draws (and the shared
  /// stream) stay exactly those of displacement_cm() at every time.
  void advance(double t_seconds) {
    // A slowly amplitude-modulated sinusoid is a decent band-limited
    // surrogate; the modulation draw is keyed to the cycle count so
    // repeated queries at the same time agree.
    const auto cycle = static_cast<long>(t_seconds * config_.frequency_hz);
    if (cycle != last_cycle_) [[unlikely]] {  // a new cycle every 1/frequency_hz
      last_cycle_ = cycle;
      amp_scale_ = 1.0 + rng_.gaussian(0.0, config_.amplitude_jitter);
    }
  }

  /// The cycle's amplitude after the last advance(), in cm.
  [[nodiscard]] double amplitude() const { return config_.amplitude_cm * amp_scale_; }

  /// Displacement at t, given amplitude() as it was after advance(t).
  /// The amplitude is passed in so a caller can stage it and evaluate
  /// the sin later, or never.
  [[nodiscard]] double at(double t_seconds, double amplitude) const {
    const double omega = 2.0 * 3.14159265358979 * config_.frequency_hz;
    return amplitude * std::sin(omega * t_seconds + phase_);
  }

  /// The amplitude stream: its position depends only on the times
  /// advanced through, not on which of them were evaluated.
  [[nodiscard]] const sim::Rng& rng() const { return rng_; }

 private:
  Config config_;
  sim::Rng rng_;
  double phase_;
  long last_cycle_ = -1;
  double amp_scale_ = 1.0;
};

/// The hand holding the device: composes a sequence of min-jerk reaches
/// with tremor into the continuous true distance signal.
class HandModel {
 public:
  explicit HandModel(sim::Rng rng, double initial_cm = 17.0)
      : tremor_(Tremor::Config{}, rng.fork(1)), base_(initial_cm), target_(initial_cm) {}

  /// Begin a reach toward `to_cm`, starting at simulated time `now`,
  /// lasting `duration`. Supersedes any reach in progress (from the
  /// current position).
  void start_reach(util::Seconds now, double to_cm, util::Seconds duration) {
    base_ = voluntary_position(now.value);
    target_ = std::clamp(to_cm, kMinCm, kMaxCm);
    reach_start_ = now.value;
    reach_duration_ = duration.value;
  }

  [[nodiscard]] double target_cm() const { return target_; }

  /// True device-to-body distance at time t (voluntary + tremor).
  [[nodiscard]] util::Centimeters distance(util::Seconds now) {
    const double d = voluntary_position(now.value) + tremor_.displacement_cm(now.value);
    return util::Centimeters{std::clamp(d, 0.0, kMaxCm)};
  }

 private:
  [[nodiscard]] double voluntary_position(double t) const {
    return min_jerk(base_, target_, t - reach_start_, reach_duration_);
  }

  static constexpr double kMinCm = 1.0;   // arm against the body
  static constexpr double kMaxCm = 45.0;  // full comfortable extension

  Tremor tremor_;
  double base_;
  double target_;
  double reach_start_ = 0.0;
  double reach_duration_ = 0.0;
};

}  // namespace distscroll::human
