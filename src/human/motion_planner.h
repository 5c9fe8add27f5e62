// Closed-loop simulated participant.
//
// Drives a baselines::ScrollTechnique's control channel the way a human
// would: aimed minimum-jerk reaches timed by Fitts' law for absolute
// channels, delayed-feedback proportional control for rate channels,
// clutched strokes for pull-wheels, key presses with auto-repeat for
// buttons — all with tremor, aim scatter, perception/reaction delays and
// glove penalties from the UserProfile. This is the substitution for the
// paper's human participants (see DESIGN.md): every Section 6/7
// experiment runs through this planner.
#pragma once

#include "baselines/scroll_technique.h"
#include "human/user_profile.h"
#include "sim/random.h"

namespace distscroll::human {

struct AcquisitionOutcome {
  bool success = false;
  double time_s = 0.0;           // start of movement to committed selection
  int corrective_movements = 0;  // re-aims after the first movement
  int overshoots = 0;            // cursor crossed the target and came back
  int wrong_selections = 0;      // select pressed while off target
  double id_bits = 0.0;          // scrolling ID: log2(|start-target| + 1)

  friend bool operator==(const AcquisitionOutcome&, const AcquisitionOutcome&) = default;
};

class MotionPlanner {
 public:
  /// The planner's fixed constants. The members are static so that
  /// `Config{}.timeout_s` reads the timeout where a caller needs it.
  struct Config {
    static constexpr double dt_s = 0.004;           // control-loop integration step
    static constexpr double timeout_s = 40.0;       // trial abort
    static constexpr double settle_dwell_s = 0.20;  // time on target before trusting it
    /// Discrete techniques hold the key (auto-repeat) above this
    /// distance instead of single presses.
    static constexpr int hold_threshold = 6;
  };

  explicit MotionPlanner(sim::Rng rng) : rng_(rng) {}

  /// Acquire `target` in the technique's current level and commit with a
  /// select press. The technique must already be reset() to the level.
  AcquisitionOutcome acquire(baselines::ScrollTechnique& technique, std::size_t target,
                             const UserProfile& profile);

 private:
  AcquisitionOutcome run_absolute(baselines::ScrollTechnique& t, std::size_t target,
                                  const UserProfile& p);
  AcquisitionOutcome run_rate(baselines::ScrollTechnique& t, std::size_t target,
                              const UserProfile& p);
  AcquisitionOutcome run_stroke(baselines::ScrollTechnique& t, std::size_t target,
                                const UserProfile& p);
  AcquisitionOutcome run_unbounded(baselines::ScrollTechnique& t, std::size_t target,
                                   const UserProfile& p);
  AcquisitionOutcome run_discrete(baselines::ScrollTechnique& t, std::size_t target,
                                  const UserProfile& p);

  /// Commit phase: press select while keeping the channel steady;
  /// returns false (and charges time) on slips/off-target presses.
  bool commit_selection(baselines::ScrollTechnique& t, std::size_t target, const UserProfile& p,
                        double hold_u, bool feed_control, AcquisitionOutcome& outcome);

  /// Effective glove factors for this technique.
  static double effective_fine_penalty(const baselines::ScrollTechnique& t,
                                       const UserProfile& p);
  static double effective_miss_probability(const baselines::ScrollTechnique& t,
                                           const UserProfile& p);

  sim::Rng rng_;
};

}  // namespace distscroll::human
