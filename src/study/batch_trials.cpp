#include "study/batch_trials.h"

#include <algorithm>
#include <cmath>

#include "human/fitts.h"
#include "human/hand_model.h"
#include "obs/stage_timer.h"

namespace distscroll::study {

namespace {

/// Counts sign changes of (cursor - target) — replica of the planner's
/// file-local OvershootCounter, observing the same cursor sequence the
/// scalar loop sees (kernel cursors_out is the cursor after each staged
/// tick).
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

}  // namespace

BatchTrialRunner& BatchTrialRunner::local() {
  thread_local BatchTrialRunner runner;
  return runner;
}

void BatchTrialRunner::begin_group(std::size_t lanes) {
  kernel_.begin_group(lanes);
  cells_.resize(lanes);
  for (Cell& cell : cells_) {
    cell.active = false;
    cell.tasks.clear();    // keeps capacity
    cell.records.clear();  // keeps capacity
  }
}

void BatchTrialRunner::init_cell(std::size_t lane,
                                 const baselines::DistanceScroll::Config& config,
                                 sim::Rng technique_rng, std::span<const SelectionTask> tasks,
                                 const human::UserProfile& profile, sim::Rng trials_rng,
                                 human::MotionPlanner::Config planner) {
  kernel_.init_lane(lane, config, technique_rng);
  Cell& cell = cells_[lane];
  cell.active = true;
  cell.tasks.assign(tasks.begin(), tasks.end());
  cell.profile = profile;
  cell.trials_rng = trials_rng;
  cell.planner = planner;
  cell.records.clear();
  cell.records.reserve(tasks.size());
}

void BatchTrialRunner::run() {
  std::size_t max_trials = 0;
  for (const Cell& cell : cells_) {
    if (cell.active) max_trials = std::max(max_trials, cell.tasks.size());
  }
  // Lockstep at trial granularity: trial t of every lane before trial
  // t+1 of any — the lanes' session state stays resident in the kernel
  // across rounds, which is what the state-isolation tests exercise.
  for (std::size_t t = 0; t < max_trials; ++t) {
    for (std::size_t lane = 0; lane < cells_.size(); ++lane) {
      Cell& cell = cells_[lane];
      if (!cell.active || t >= cell.tasks.size()) continue;
      // run_trials forks the trial planner stream off the trial index.
      cell.records.push_back(run_one_trial(lane, cell, cell.tasks[t], cell.trials_rng.fork(t)));
    }
  }
}

TrialRecord BatchTrialRunner::run_one_trial(std::size_t lane, const Cell& cell,
                                            const SelectionTask& task, sim::Rng rng) {
  {
    DS_STAGE(TrialSetup);  // lane reset, as the scalar technique.reset()
    kernel_.reset_lane(lane, task.level_size, task.start_index);
  }
  TrialRecord record;
  // MotionPlanner::acquire: start cursor before the run, ID bits after.
  const long start = static_cast<long>(kernel_.cursor(lane));
  record.outcome = acquire_absolute(lane, task.target_index, cell.profile, rng, cell.planner);
  record.outcome.id_bits =
      std::log2(std::abs(start - static_cast<long>(task.target_index)) + 1.0);
  record.level_size = task.level_size;
  record.scroll_distance = task.target_index > task.start_index
                               ? task.target_index - task.start_index
                               : task.start_index - task.target_index;
  return record;
}

void BatchTrialRunner::run_staged_block(std::size_t lane) {
  cursors_.resize(times_.size());
  kernel_.run_block(lane, times_, us_, cursors_);
}

human::AcquisitionOutcome BatchTrialRunner::acquire_absolute(
    std::size_t lane, std::size_t target, const human::UserProfile& p, sim::Rng& rng,
    const human::MotionPlanner::Config& cfg) {
  human::AcquisitionOutcome outcome;
  const auto spec = kernel_.spec(lane);
  const auto maybe_target_u = kernel_.target_u(lane, target);
  if (!maybe_target_u) return outcome;
  const double goal_u = *maybe_target_u;
  const double width_u = kernel_.target_width_u(lane, target);

  human::Tremor tremor(p.tremor, rng.fork(1));
  OvershootCounter overshoots(static_cast<long>(target));
  double u = spec.u_neutral;
  double now = 0.0;
  bool first_move = true;

  // One control step, as in MotionPlanner::run_absolute: only firmware
  // ticks are staged; the tremor advances through every step; a skipped
  // step right after an unobserved cursor move observes it (the block
  // has not run yet, so the kernel cursor is still the pre-block one).
  double next_tick = kernel_.next_tick_s(lane);
  const double tick_period = kernel_.tick_period_s(lane);
  bool observe_pending = true;
  const auto step = [&](const auto& hand_u) {
    tremor.advance(now);
    if (now < next_tick) {
      if (observe_pending) overshoots.observe(static_cast<long>(kernel_.cursor(lane)));
    } else {
      next_tick = now + tick_period;
      times_.push_back(now);
      us_.push_back(hand_u() + tremor.at(now));
    }
    observe_pending = false;
    now += cfg.dt_s;
  };

  while (now < cfg.timeout_s) {
    const double amplitude = std::abs(goal_u - u);
    const double sigma = p.aim_w0_cm + p.aim_w1 * amplitude;
    double aim = goal_u + rng.gaussian(0.0, sigma);
    aim = std::clamp(aim, spec.u_min, spec.u_max);
    const util::Seconds reach_time = human::movement_time(p.reach_fitts, amplitude, width_u);

    if (!first_move) ++outcome.corrective_movements;
    first_move = false;

    // Reach: stage the control feed, then one kernel block. The time
    // sequence is built with the scalar loop's exact FP accumulation
    // (now += dt inside the same-shaped while).
    const double t0 = now;
    const double u0 = u;
    times_.clear();
    us_.clear();
    while (now < t0 + reach_time.value) {
      step([&] { return human::min_jerk(u0, aim, now - t0, reach_time.value); });
    }
    run_staged_block(lane);
    for (const std::uint32_t cursor : cursors_) {
      overshoots.observe(static_cast<long>(cursor));
    }
    u = aim;

    // Settle & perceive: hold, then check after the reaction time.
    const double dwell = p.reaction_time_s + cfg.settle_dwell_s;
    const double s0 = now;
    times_.clear();
    us_.clear();
    while (now < s0 + dwell) {
      step([&] { return u; });
    }
    run_staged_block(lane);
    for (const std::uint32_t cursor : cursors_) {
      overshoots.observe(static_cast<long>(cursor));
    }

    if (kernel_.cursor(lane) == target) {
      now += p.verification_time_s;
      outcome.time_s = now;
      if (commit(lane, target, p, rng, cfg, u, outcome)) {
        outcome.success = true;
        outcome.overshoots = overshoots.count();
        return outcome;
      }
      now = outcome.time_s;
      next_tick = kernel_.next_tick_s(lane);
      observe_pending = true;
      continue;  // slipped or drifted: re-settle and retry
    }
  }
  outcome.time_s = now;
  outcome.overshoots = overshoots.count();
  return outcome;
}

bool BatchTrialRunner::commit(std::size_t lane, std::size_t target, const human::UserProfile& p,
                              sim::Rng& rng, const human::MotionPlanner::Config& cfg,
                              double hold_u, human::AcquisitionOutcome& outcome) {
  // effective_fine_penalty / effective_miss_probability with
  // DistScroll's glove sensitivity (pinned equal to the virtual call).
  const double penalty =
      1.0 + (p.fine_motor_penalty - 1.0) * BatchSessionKernel::kGloveSensitivity;
  const double press_time = p.button_press_s * penalty;
  if (rng.bernoulli(std::min(0.7, p.button_miss_probability *
                                      BatchSessionKernel::kGloveSensitivity))) {
    outcome.time_s += press_time * 1.5;  // failed press + noticing
    return false;
  }
  // Holding the channel steady during the press, its ticks fed as one
  // block.
  human::Tremor tremor(p.tremor, rng.fork(777));
  const double t0 = outcome.time_s;
  double next_tick = kernel_.next_tick_s(lane);
  const double tick_period = kernel_.tick_period_s(lane);
  times_.clear();
  us_.clear();
  for (double dt = 0.0; dt < press_time; dt += cfg.dt_s) {
    const double now = t0 + dt;
    tremor.advance(now);
    if (now < next_tick) continue;
    next_tick = now + tick_period;
    times_.push_back(now);
    us_.push_back(hold_u + tremor.at(now));
  }
  run_staged_block(lane);
  outcome.time_s += press_time;
  if (kernel_.cursor(lane) != target) {
    ++outcome.wrong_selections;
    return false;
  }
  return true;
}

}  // namespace distscroll::study
