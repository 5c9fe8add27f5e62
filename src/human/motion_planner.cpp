#include "human/motion_planner.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <span>
#include <vector>

#include "baselines/button_scroll.h"
#include "baselines/wheel_scroll.h"
#include "human/fitts.h"
#include "human/hand_model.h"

namespace distscroll::human {

namespace {

/// Perceived-cursor buffer: the user reacts to where the cursor WAS
/// reaction_time ago, not where it is.
///
/// Inline fixed ring instead of std::deque: one of these is constructed
/// per rate/unbounded trial, and the deque's chunk-map allocation plus
/// teardown showed up at ~8% of exp_scroll_comparison's flat profile.
/// Capacity covers reaction_time/dt with 1.7x headroom (worst profile:
/// 0.30 s at 4 ms steps = 75 live samples); if a configuration ever
/// exceeds it, the oldest sample is dropped — which only shortens the
/// perceived delay for windows that could not fit anyway.
class DelayedPerception {
 public:
  explicit DelayedPerception(double delay_s) : delay_s_(delay_s) {}

  void observe(double t, long cursor) {
    if (size_ == kCapacity) {
      head_ = (head_ + 1) & kMask;
      --size_;
    }
    buffer_[(head_ + size_) & kMask] = {t, cursor};
    ++size_;
  }

  [[nodiscard]] long perceived(double t) {
    const double cutoff = t - delay_s_;
    while (size_ > 1 && buffer_[(head_ + 1) & kMask].t <= cutoff) {
      head_ = (head_ + 1) & kMask;
      --size_;
    }
    return size_ == 0 ? 0 : buffer_[head_].cursor;
  }

 private:
  struct Sample {
    double t;
    long cursor;
  };
  static constexpr std::size_t kCapacity = 128;
  static constexpr std::size_t kMask = kCapacity - 1;
  double delay_s_;
  std::array<Sample, kCapacity> buffer_{};
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

/// Counts sign changes of (cursor - target): each full crossing is an
/// overshoot.
class OvershootCounter {
 public:
  explicit OvershootCounter(long target) : target_(target) {}

  void observe(long cursor) {
    const int sign = cursor > target_ ? 1 : (cursor < target_ ? -1 : 0);
    if (sign != 0 && last_sign_ != 0 && sign != last_sign_) ++count_;
    if (sign != 0) last_sign_ = sign;
  }

  [[nodiscard]] int count() const { return count_; }

 private:
  long target_;
  int last_sign_ = 0;
  int count_ = 0;
};

/// The steps one absolute-control phase (reach, settle, press) stages,
/// fed to the technique as one block: each step's time and its tremor
/// amplitude, the hand sample's two per-step inputs. The sample itself
/// is synthesised only when the technique reads it. Thread-local, not a
/// planner member: a planner lives for one trial, the capacity for the
/// thread.
class ControlBlock {
 public:
  static ControlBlock& local() {
    thread_local ControlBlock block;
    return block;
  }

  void stage(double now, double tremor_amplitude) {
    now_s_.push_back(now);
    amplitude_.push_back(tremor_amplitude);
  }

  /// One phase's step loop: walks the dense grid from `clock` in steps
  /// of `dt` while clock < end, advances `tremor` on every step and
  /// stages the steps at or after `deadline`, which moves one `period`
  /// on after each. Returns the clock after the phase. Out of line on
  /// purpose: inlined into the planner's large frame, the clock and the
  /// deadline were kept in memory, a store and reload on every step.
  [[gnu::noinline]] double walk(Tremor& tremor, double clock, double end, double dt,
                                double deadline, double period) {
    while (clock < end) {
      tremor.advance(clock);
      if (clock >= deadline) {
        stage(clock, tremor.amplitude());
        deadline = clock + period;
      }
      clock += dt;
    }
    return clock;
  }

  /// Feed the staged samples to `t` as one block and empty the stage;
  /// `hand_at(now, amplitude)` is the phase's hand sample. Returns the
  /// cursor after each sample, valid until the next feed.
  template <typename HandAt>
  std::span<const std::size_t> feed(baselines::ScrollTechnique& t, const HandAt& hand_at) {
    cursors_.resize(now_s_.size());
    if (!now_s_.empty()) {
      std::size_t next_k = 0;
      const auto hand = [&](std::size_t k) {
        // The block contract: each sample is read at most once, in
        // increasing k.
        assert(k >= next_k && "hand(k) read out of order");
        next_k = k + 1;
        return hand_at(now_s_[k], amplitude_[k]);
      };
      t.on_control_block(now_s_, hand, cursors_);
      // A technique that reports a period but keeps a stale deadline
      // would have samples it reads skipped without a trace.
      [[maybe_unused]] const double period = t.control_period_s();
      assert(period <= 0.0 || t.next_control_s() >= now_s_.back() + period);
    }
    now_s_.clear();
    amplitude_.clear();
    return cursors_;
  }

 private:
  std::vector<double> now_s_;
  std::vector<double> amplitude_;
  std::vector<std::size_t> cursors_;
};

}  // namespace

double MotionPlanner::effective_fine_penalty(const baselines::ScrollTechnique& t,
                                             const UserProfile& p) {
  return 1.0 + (p.fine_motor_penalty - 1.0) * t.glove_sensitivity();
}

double MotionPlanner::effective_miss_probability(const baselines::ScrollTechnique& t,
                                                 const UserProfile& p) {
  return std::min(0.7, p.button_miss_probability * t.glove_sensitivity());
}

AcquisitionOutcome MotionPlanner::acquire(baselines::ScrollTechnique& technique,
                                          std::size_t target, const UserProfile& profile) {
  const long start = static_cast<long>(technique.cursor());
  AcquisitionOutcome outcome;
  switch (technique.spec().style) {
    case baselines::ControlStyle::AbsolutePosition:
      outcome = run_absolute(technique, target, profile);
      break;
    case baselines::ControlStyle::RateControl:
      outcome = run_rate(technique, target, profile);
      break;
    case baselines::ControlStyle::RelativeStroke:
      outcome = run_stroke(technique, target, profile);
      break;
    case baselines::ControlStyle::RelativeUnbounded:
      outcome = run_unbounded(technique, target, profile);
      break;
    case baselines::ControlStyle::DiscreteSteps:
      outcome = run_discrete(technique, target, profile);
      break;
  }
  outcome.id_bits =
      std::log2(std::abs(start - static_cast<long>(target)) + 1.0);
  return outcome;
}

bool MotionPlanner::commit_selection(baselines::ScrollTechnique& t, std::size_t target,
                                     const UserProfile& p, double hold_u, bool feed_control,
                                     AcquisitionOutcome& outcome) {
  const double penalty = effective_fine_penalty(t, p);
  const double press_time = p.button_press_s * penalty;
  // Press slips entirely with the glove-scaled miss probability.
  if (rng_.bernoulli(effective_miss_probability(t, p))) {
    outcome.time_s += press_time * 1.5;  // failed press + noticing
    return false;
  }
  // Holding the channel steady during the press: tremor may push an
  // absolute channel across an island boundary mid-press. The press is
  // one block, staged as run_absolute stages a phase; the tremor still
  // advances through the skipped steps.
  if (feed_control) {
    Tremor tremor(p.tremor, rng_.fork(777));
    ControlBlock& block = ControlBlock::local();
    const double period = t.control_period_s();
    const double t0 = outcome.time_s;
    double next_control = t.next_control_s();
    for (double dt = 0.0; dt < press_time; dt += Config::dt_s) {
      const double now = t0 + dt;
      tremor.advance(now);
      if (now < next_control) continue;
      block.stage(now, tremor.amplitude());
      next_control = now + period;
    }
    (void)block.feed(t, [&](double now, double amplitude) {
      return hold_u + tremor.at(now, amplitude);
    });
  }
  outcome.time_s += press_time;
  if (t.cursor() != target) {
    ++outcome.wrong_selections;
    return false;
  }
  return true;
}

AcquisitionOutcome MotionPlanner::run_absolute(baselines::ScrollTechnique& t, std::size_t target,
                                               const UserProfile& p) {
  AcquisitionOutcome outcome;
  const auto spec = t.spec();
  const auto maybe_target_u = t.target_u(target);
  if (!maybe_target_u) return outcome;
  const double goal_u = *maybe_target_u;
  const double width_u = t.target_width_u(target);

  Tremor tremor(p.tremor, rng_.fork(1));
  OvershootCounter overshoots(static_cast<long>(target));
  double u = spec.u_neutral;
  double now = 0.0;
  bool first_move = true;

  // One phase (reach, settle) walks the dense time grid to `end`,
  // staging only the steps at or after the control deadline, then runs
  // as one block. A skipped step would be discarded, so it synthesises
  // no hand sample; the tremor still advances on every step, keeping its
  // draws those of the dense feed. A staged step keeps its tremor
  // amplitude and moves the local deadline one control period on; its
  // hand sample (the phase's `hand` plus tremor) is synthesised only if
  // the technique reads it. The cursor cannot move on a skipped step,
  // and re-observing an observed cursor is a no-op, except right after
  // the cursor moved unobserved (trial start, a failed commit's press):
  // the dense feed's next step observes it, so a skipped one does too.
  // That step is a phase's first, so the block has not moved the cursor
  // yet, and the step loop itself (ControlBlock::walk) observes nothing.
  ControlBlock& block = ControlBlock::local();
  const double period = t.control_period_s();
  double next_control = t.next_control_s();
  bool observe_pending = true;
  const auto phase = [&](double end, const auto& hand) {
    if (observe_pending && now < end) {
      if (now < next_control) overshoots.observe(static_cast<long>(t.cursor()));
      observe_pending = false;
    }
    now = block.walk(tremor, now, end, Config::dt_s, next_control, period);
    const auto hand_at = [&](double at, double amplitude) {
      return hand(at) + tremor.at(at, amplitude);
    };
    for (const std::size_t cursor : block.feed(t, hand_at)) {
      overshoots.observe(static_cast<long>(cursor));
    }
    next_control = t.next_control_s();
  };

  while (now < Config::timeout_s) {
    // Aim with amplitude-proportional scatter; corrective movements aim
    // tighter (shorter amplitude => smaller sigma by Schmidt's law).
    const double amplitude = std::abs(goal_u - u);
    const double sigma = p.aim_w0_cm + p.aim_w1 * amplitude;
    double aim = goal_u + rng_.gaussian(0.0, sigma);
    aim = std::clamp(aim, spec.u_min, spec.u_max);
    const util::Seconds reach_time = movement_time(p.reach_fitts, amplitude, width_u);

    if (!first_move) ++outcome.corrective_movements;
    first_move = false;

    // Execute the reach along the min-jerk profile.
    const double t0 = now;
    const double u0 = u;
    phase(t0 + reach_time.value,
          [&](double at) { return min_jerk(u0, aim, at - t0, reach_time.value); });
    u = aim;

    // Settle & perceive: hold, then check after the reaction time.
    const double dwell = p.reaction_time_s + Config::settle_dwell_s;
    phase(now + dwell, [&](double) { return u; });

    if (t.cursor() == target) {
      // Verify the label, then commit.
      now += p.verification_time_s;
      outcome.time_s = now;
      if (commit_selection(t, target, p, u, /*feed_control=*/true, outcome)) {
        outcome.success = true;
        outcome.overshoots = overshoots.count();
        return outcome;
      }
      now = outcome.time_s;
      next_control = t.next_control_s();
      observe_pending = true;
      continue;  // slipped or drifted: re-settle and retry
    }
  }
  outcome.time_s = now;
  outcome.overshoots = overshoots.count();
  return outcome;
}

AcquisitionOutcome MotionPlanner::run_rate(baselines::ScrollTechnique& t, std::size_t target,
                                           const UserProfile& p) {
  AcquisitionOutcome outcome;
  const auto spec = t.spec();
  DelayedPerception perception(p.reaction_time_s);
  OvershootCounter overshoots(static_cast<long>(target));
  const double penalty = effective_fine_penalty(t, p);

  double u = spec.u_neutral;
  double now = 0.0;
  double on_target_since = -1.0;
  // The cursor moves only inside on_control (a rate commit feeds no
  // control), so one read after each call serves perception, the
  // overshoot counter and the on-target test. Steps before the
  // technique's control deadline skip the call; the wrist still moves.
  long cursor = static_cast<long>(t.cursor());
  double next_control = t.next_control_s();

  while (now < Config::timeout_s) {
    perception.observe(now, cursor);
    const long perceived = perception.perceived(now);
    const long err = static_cast<long>(target) - perceived;

    // Proportional zone of ~6 entries, saturating to full deflection.
    double desired =
        spec.u_max * std::clamp(static_cast<double>(err) / 6.0, -1.0, 1.0);
    if (err == 0) desired = spec.u_neutral;
    // Wrist moves toward the desired angle at a limited (glove-scaled)
    // angular speed, with motor wobble.
    const double max_step = (p.tilt_speed_rad_s / penalty) * Config::dt_s;
    const double delta = std::clamp(desired - u, -max_step, max_step);
    u += delta + rng_.gaussian(0.0, 0.008 * penalty);
    u = std::clamp(u, spec.u_min, spec.u_max);

    if (now >= next_control) {
      t.on_control(util::Seconds{now}, u);
      cursor = static_cast<long>(t.cursor());
      next_control = t.next_control_s();
    }
    overshoots.observe(cursor);
    now += Config::dt_s;

    if (cursor == static_cast<long>(target) && std::abs(u) < 0.5 * spec.u_max) {
      if (on_target_since < 0.0) on_target_since = now;
      if (now - on_target_since >= Config::settle_dwell_s + p.reaction_time_s) {
        now += p.verification_time_s;
        outcome.time_s = now;
        if (commit_selection(t, target, p, u, /*feed_control=*/false, outcome)) {
          outcome.success = true;
          outcome.overshoots = overshoots.count();
          return outcome;
        }
        now = outcome.time_s;
        on_target_since = -1.0;
        ++outcome.corrective_movements;
      }
    } else {
      on_target_since = -1.0;
    }
  }
  outcome.time_s = now;
  outcome.overshoots = overshoots.count();
  return outcome;
}

AcquisitionOutcome MotionPlanner::run_stroke(baselines::ScrollTechnique& t, std::size_t target,
                                             const UserProfile& p) {
  AcquisitionOutcome outcome;
  auto* wheel = dynamic_cast<baselines::WheelScroll*>(&t);
  OvershootCounter overshoots(static_cast<long>(target));
  const double gain = wheel ? wheel->gain() : 1.0;
  const double stroke_max = wheel ? wheel->stroke_max_cm() : t.spec().u_max;

  double now = 0.0;
  bool first = true;
  while (now < Config::timeout_s) {
    const long err = static_cast<long>(target) - static_cast<long>(t.cursor());
    if (err == 0) {
      now += p.verification_time_s;
      outcome.time_s = now;
      if (commit_selection(t, target, p, 0.0, /*feed_control=*/false, outcome)) {
        outcome.success = true;
        outcome.overshoots = overshoots.count();
        return outcome;
      }
      now = outcome.time_s;
      continue;
    }
    if (!first) ++outcome.corrective_movements;
    first = false;

    // One clutched stroke: pull out, freewheel back.
    const double desired_entries = std::min<double>(std::abs(err), gain * stroke_max);
    double length = desired_entries / gain;
    length *= 1.0 + rng_.gaussian(0.0, 0.06);  // pull-length scatter
    length = std::clamp(length, 0.3, stroke_max);
    if (wheel) {
      wheel->set_direction(err > 0 ? 1 : -1);
    }
    t.set_engaged(true);
    const util::Seconds pull_time =
        movement_time(p.reach_fitts, length, std::max(0.3, 1.0 / gain));
    const double t0 = now;
    while (now < t0 + pull_time.value) {
      const double u = min_jerk(0.0, length, now - t0, pull_time.value);
      t.on_control(util::Seconds{now}, u);
      overshoots.observe(static_cast<long>(t.cursor()));
      now += Config::dt_s;
    }
    t.set_engaged(false);
    if (wheel && wheel->jammed(util::Seconds{now})) {
      now += wheel->jam_recovery().value;  // shake the mechanism loose
    }
    // Spring retraction (~0.25 s), then perceive the result.
    const double r0 = now;
    while (now < r0 + 0.25) {
      const double u = min_jerk(length, 0.0, now - r0, 0.25);
      t.on_control(util::Seconds{now}, u);
      now += Config::dt_s;
    }
    now += p.reaction_time_s;
  }
  outcome.time_s = now;
  outcome.overshoots = overshoots.count();
  return outcome;
}

AcquisitionOutcome MotionPlanner::run_unbounded(baselines::ScrollTechnique& t, std::size_t target,
                                                const UserProfile& p) {
  AcquisitionOutcome outcome;
  const auto spec = t.spec();
  DelayedPerception perception(p.reaction_time_s);
  OvershootCounter overshoots(static_cast<long>(target));
  const double penalty = effective_fine_penalty(t, p);
  // Thick gloves on a touch surface: gestures intermittently fail to
  // register at all.
  const double dropout_per_s = (p.glove == Glove::Thick) ? 0.8 : (p.glove == Glove::Thin ? 0.1 : 0.0);

  double u = 0.0;
  double now = 0.0;
  double on_target_since = -1.0;
  bool touching = true;
  // As in run_rate: the cursor moves only inside on_control.
  long cursor = static_cast<long>(t.cursor());

  while (now < Config::timeout_s) {
    perception.observe(now, cursor);
    const long err = static_cast<long>(target) - perception.perceived(now);

    if (touching && rng_.bernoulli(dropout_per_s * Config::dt_s)) {
      // Touch lost: lift, re-place the finger (costs time, no motion).
      touching = false;
      now += 0.5 * penalty;
      touching = true;
      continue;
    }

    // Circle speed proportional to remaining error, capped by the
    // comfortable gesture rate (slower with gloves/stylus problems).
    const double max_rate = spec.max_rate / penalty;
    const double rate =
        std::clamp(static_cast<double>(err) * 0.25, -max_rate, max_rate);
    u += rate * Config::dt_s + rng_.gaussian(0.0, 0.002 * penalty);
    t.on_control(util::Seconds{now}, u);
    cursor = static_cast<long>(t.cursor());
    overshoots.observe(cursor);
    now += Config::dt_s;

    if (cursor == static_cast<long>(target)) {
      if (on_target_since < 0.0) on_target_since = now;
      if (now - on_target_since >= Config::settle_dwell_s + p.reaction_time_s) {
        now += p.verification_time_s;
        outcome.time_s = now;
        if (commit_selection(t, target, p, u, /*feed_control=*/false, outcome)) {
          outcome.success = true;
          outcome.overshoots = overshoots.count();
          return outcome;
        }
        now = outcome.time_s;
        on_target_since = -1.0;
        ++outcome.corrective_movements;
      }
    } else {
      on_target_since = -1.0;
    }
  }
  outcome.time_s = now;
  outcome.overshoots = overshoots.count();
  return outcome;
}

AcquisitionOutcome MotionPlanner::run_discrete(baselines::ScrollTechnique& t, std::size_t target,
                                               const UserProfile& p) {
  AcquisitionOutcome outcome;
  auto* buttons = dynamic_cast<baselines::ButtonScroll*>(&t);
  OvershootCounter overshoots(static_cast<long>(target));
  const double penalty = effective_fine_penalty(t, p);
  const double miss_p = effective_miss_probability(t, p);

  double now = 0.0;
  while (now < Config::timeout_s) {
    const long err = static_cast<long>(target) - static_cast<long>(t.cursor());
    if (err == 0) {
      now += p.verification_time_s;
      outcome.time_s = now;
      if (commit_selection(t, target, p, 0.0, /*feed_control=*/false, outcome)) {
        outcome.success = true;
        outcome.overshoots = overshoots.count();
        return outcome;
      }
      now = outcome.time_s;
      continue;
    }

    if (buttons && std::abs(err) >= Config::hold_threshold) {
      // Hold for auto-repeat; release is late by the reaction time, so
      // overshoot is built in.
      buttons->begin_hold(util::Seconds{now}, err > 0 ? 1 : -1);
      while (static_cast<long>(t.cursor()) != static_cast<long>(target) &&
             now < Config::timeout_s) {
        buttons->poll_hold(util::Seconds{now});
        overshoots.observe(static_cast<long>(t.cursor()));
        // Stop condition is evaluated on the *perceived* (delayed)
        // cursor: keep holding a little past the target.
        const long c = static_cast<long>(t.cursor());
        if ((err > 0 && c >= static_cast<long>(target)) ||
            (err < 0 && c <= static_cast<long>(target))) {
          break;
        }
        now += Config::dt_s;
      }
      now += p.reaction_time_s;  // late release
      buttons->end_hold(util::Seconds{now});
      overshoots.observe(static_cast<long>(t.cursor()));
      ++outcome.corrective_movements;
      continue;
    }

    // Single deliberate press.
    now += p.button_press_s * penalty;
    if (!rng_.bernoulli(miss_p)) {
      t.on_step(util::Seconds{now}, err > 0 ? 1 : -1);
    }
    overshoots.observe(static_cast<long>(t.cursor()));
    // Short inter-press gap.
    now += 0.06 * penalty;
  }
  outcome.time_s = now;
  outcome.overshoots = overshoots.count();
  return outcome;
}

}  // namespace distscroll::human
