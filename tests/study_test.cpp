// Tests for the study harness: task generators, metrics, the full-device
// user study and its learning curve, and the report tables.
#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/button_scroll.h"
#include "baselines/distance_scroll.h"
#include "baselines/tilt_scroll.h"
#include "menu/phone_menu.h"
#include "sensors/gp2d120.h"
#include "study/batch_trials.h"
#include "study/device_study.h"
#include "study/metrics.h"
#include "study/report.h"
#include "study/task.h"
#include "study/trial.h"

namespace distscroll::study {
namespace {

// --- tasks ----------------------------------------------------------------------

TEST(Tasks, RandomTasksValid) {
  sim::Rng rng(1);
  const auto tasks = random_tasks(rng, 10, 50);
  ASSERT_EQ(tasks.size(), 50u);
  for (const auto& t : tasks) {
    EXPECT_LT(t.start_index, 10u);
    EXPECT_LT(t.target_index, 10u);
    EXPECT_NE(t.start_index, t.target_index);
  }
}

// --- metrics -----------------------------------------------------------------------

TEST(Metrics, AggregateMixesSuccessAndFailure) {
  std::vector<TrialRecord> records(4);
  records[0].outcome = {true, 2.0, 0, 1, 0, 3.0};
  records[1].outcome = {true, 4.0, 1, 0, 0, 3.0};
  records[2].outcome = {false, 30.0, 5, 3, 2, 3.0};
  records[3].outcome = {true, 3.0, 0, 0, 1, 3.0};
  const Aggregate agg = aggregate(records);
  EXPECT_EQ(agg.trials, 4u);
  EXPECT_DOUBLE_EQ(agg.success_rate, 0.75);
  EXPECT_DOUBLE_EQ(agg.mean_time_s, 3.0);  // successes only
  EXPECT_DOUBLE_EQ(agg.error_rate, 0.75);  // 3 wrong selections / 4 trials
  EXPECT_DOUBLE_EQ(agg.mean_overshoots, 1.0);
  EXPECT_GT(agg.throughput_bits_s, 0.0);
}

TEST(Metrics, EmptyAggregateSafe) {
  const Aggregate agg = aggregate({});
  EXPECT_EQ(agg.trials, 0u);
  EXPECT_DOUBLE_EQ(agg.mean_time_s, 0.0);
}

// --- trials on real techniques -------------------------------------------------------

TEST(Trial, DistanceScrollCompletesTasks) {
  baselines::DistanceScroll technique({}, sim::Rng(3));
  sim::Rng rng(4);
  const auto tasks = random_tasks(rng, 8, 10);
  const auto records = run_trials(technique, tasks, human::UserProfile::average(), rng.fork(1));
  const Aggregate agg = aggregate(records);
  EXPECT_GT(agg.success_rate, 0.8);
  EXPECT_GT(agg.mean_time_s, 0.5);
  EXPECT_LT(agg.mean_time_s, 15.0);
}

TEST(Trial, ButtonScrollCompletesTasks) {
  baselines::ButtonScroll technique;
  sim::Rng rng(5);
  const auto tasks = random_tasks(rng, 8, 10);
  const auto records = run_trials(technique, tasks, human::UserProfile::average(), rng.fork(1));
  EXPECT_GT(aggregate(records).success_rate, 0.9);
}

TEST(Trial, RecordsScrollDistance) {
  baselines::ButtonScroll technique;
  SelectionTask task{10, 2, 7};
  const auto record = run_trial(technique, task, human::UserProfile::average(), sim::Rng(6));
  EXPECT_EQ(record.scroll_distance, 5u);
  EXPECT_EQ(record.level_size, 10u);
}

// --- control deadline: the sparse feed equals the dense one ------------------------

/// Forwards every call to an `Inner` technique and counts on_control
/// calls; blocks reach on_control through the default on_control_block
/// loop. kForwardDeadline false leaves next_control_s() and
/// control_period_s() at the defaults, so the planner feeds it densely,
/// as it fed every technique before the hooks. The two travel together:
/// a deadline without its period still stages every step after it.
template <typename Inner, bool kForwardDeadline>
class CountingTechnique final : public baselines::ScrollTechnique {
 public:
  explicit CountingTechnique(sim::Rng rng) : inner_({}, rng) {}

  std::string name() const override { return inner_.name(); }
  baselines::ControlSpec spec() const override { return inner_.spec(); }
  void reset(std::size_t level_size, std::size_t start) override {
    inner_.reset(level_size, start);
  }
  std::size_t cursor() const override { return inner_.cursor(); }
  std::size_t level_size() const override { return inner_.level_size(); }
  void on_control(util::Seconds now, double u) override {
    ++control_calls;
    inner_.on_control(now, u);
  }
  double next_control_s() const override {
    return kForwardDeadline ? inner_.next_control_s() : ScrollTechnique::next_control_s();
  }
  double control_period_s() const override {
    return kForwardDeadline ? inner_.control_period_s() : ScrollTechnique::control_period_s();
  }
  std::optional<double> target_u(std::size_t target) const override {
    return inner_.target_u(target);
  }
  double target_width_u(std::size_t target) const override {
    return inner_.target_width_u(target);
  }
  bool one_handed() const override { return inner_.one_handed(); }
  double glove_sensitivity() const override { return inner_.glove_sensitivity(); }

  std::size_t control_calls = 0;

 private:
  Inner inner_;
};

/// Runs `technique` over 40 trials per glove condition, 20-entry menu.
template <typename Technique>
std::vector<TrialRecord> deadline_records(Technique& technique, human::Glove glove,
                                          std::uint64_t seed) {
  sim::Rng rng(seed);
  const auto tasks = random_tasks(rng, 20, 40);
  return run_trials(technique, tasks, human::UserProfile{}.with_expertise(0.15).with_glove(glove), rng.fork(1));
}

/// Runs the bare technique and a dense (non-forwarding) wrapper over it
/// through the same none/thin/thick grid and expects identical records.
/// Returns the outcome totals, so a test can assert that the grid
/// reached the path it cares about.
template <typename Inner>
human::AcquisitionOutcome expect_dense_matches_bare() {
  human::AcquisitionOutcome totals;
  for (const human::Glove glove : {human::Glove::None, human::Glove::Thin, human::Glove::Thick}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      Inner bare({}, sim::Rng(seed * 31));
      CountingTechnique<Inner, false> dense(sim::Rng(seed * 31));
      const auto sparse_records = deadline_records(bare, glove, seed);
      const auto dense_records = deadline_records(dense, glove, seed);
      EXPECT_EQ(sparse_records.size(), dense_records.size());
      for (std::size_t i = 0; i < std::min(sparse_records.size(), dense_records.size()); ++i) {
        EXPECT_TRUE(sparse_records[i] == dense_records[i]) << "seed " << seed << " trial " << i;
        totals.wrong_selections += dense_records[i].outcome.wrong_selections;
        totals.corrective_movements += dense_records[i].outcome.corrective_movements;
      }
    }
  }
  return totals;
}

/// Control calls the planner makes with the deadline forwarded, as a
/// share of the dense feed's, after checking both give the same records.
template <typename Inner>
double sparse_call_ratio() {
  CountingTechnique<Inner, true> sparse(sim::Rng(7));
  CountingTechnique<Inner, false> dense(sim::Rng(7));
  const auto sparse_records = deadline_records(sparse, human::Glove::Thick, 9);
  const auto dense_records = deadline_records(dense, human::Glove::Thick, 9);
  EXPECT_TRUE(sparse_records == dense_records);
  EXPECT_GT(dense.control_calls, 0u);
  return static_cast<double>(sparse.control_calls) / static_cast<double>(dense.control_calls);
}

TEST(ControlDeadline, DenseWrapperMatchesBareTechnique) {
  // The commit press moves the cursor without an overshoot observation;
  // the grid must exercise that path for the comparison to mean much.
  EXPECT_GT(expect_dense_matches_bare<baselines::DistanceScroll>().wrong_selections, 0);
}

TEST(ControlDeadline, PlannerFeedsOnlyFirmwareTicks) {
  // A 20 ms tick over 4 ms steps: one call in every five or six steps.
  const double ratio = sparse_call_ratio<baselines::DistanceScroll>();
  EXPECT_GT(ratio, 1.0 / 6.5);
  EXPECT_LT(ratio, 1.0 / 4.5);
}

TEST(ControlDeadline, TiltDenseWrapperMatchesBareTechnique) {
  // A rate-control retry (slipped press) resumes the loop with the
  // deadline carried over; the grid must exercise it.
  EXPECT_GT(expect_dense_matches_bare<baselines::TiltScroll>().corrective_movements, 0);
}

TEST(ControlDeadline, PlannerFeedsOnlyTiltSamples) {
  // A 20 ms accelerometer tick over 4 ms steps: one call in five or six.
  const double ratio = sparse_call_ratio<baselines::TiltScroll>();
  EXPECT_GT(ratio, 1.0 / 6.5);
  EXPECT_LT(ratio, 1.0 / 4.5);
}

/// Forwards all four control hooks to a DistanceScroll and, per trial,
/// counts the firmware ticks, the hand samples the block reads and the
/// remeasures a separate GP2D120 replay of the same ticks makes.
class HandCountingTechnique final : public baselines::ScrollTechnique {
 public:
  struct Counts {
    std::size_t ticks = 0;
    std::size_t hand_samples = 0;
    std::size_t remeasures = 0;
  };

  explicit HandCountingTechnique(sim::Rng rng) : inner_({}, rng), replay_({}, sim::Rng(1)) {}

  std::string name() const override { return inner_.name(); }
  baselines::ControlSpec spec() const override { return inner_.spec(); }
  void reset(std::size_t level_size, std::size_t start) override {
    inner_.reset(level_size, start);
    replay_.reset();
    next_tick_s_ = 0.0;
    trials.emplace_back();
  }
  std::size_t cursor() const override { return inner_.cursor(); }
  std::size_t level_size() const override { return inner_.level_size(); }
  void on_control(util::Seconds now, double u) override { inner_.on_control(now, u); }
  double next_control_s() const override { return inner_.next_control_s(); }
  double control_period_s() const override { return inner_.control_period_s(); }
  void on_control_block(std::span<const double> now_s, HandSignal hand,
                        std::span<std::size_t> cursors_out) override {
    Counts& counts = trials.back();
    for (const double t : now_s) {
      if (t < next_tick_s_) continue;
      next_tick_s_ = t + inner_.control_period_s();
      ++counts.ticks;
      if (replay_.reads_at(util::Seconds{t})) ++counts.remeasures;
      (void)replay_.output(util::Centimeters{15.0}, util::Seconds{t});
    }
    const auto counted = [&](std::size_t k) {
      ++counts.hand_samples;
      return hand(k);
    };
    inner_.on_control_block(now_s, counted, cursors_out);
  }
  std::optional<double> target_u(std::size_t target) const override {
    return inner_.target_u(target);
  }
  double target_width_u(std::size_t target) const override {
    return inner_.target_width_u(target);
  }
  double glove_sensitivity() const override { return inner_.glove_sensitivity(); }

  std::vector<Counts> trials;

 private:
  baselines::DistanceScroll inner_;
  sensors::Gp2d120Model replay_;
  double next_tick_s_ = 0.0;
};

TEST(ControlDeadline, PlannerSynthesisesOnlyTheHandSamplesTheSensorReads) {
  baselines::DistanceScroll bare({}, sim::Rng(21));
  HandCountingTechnique counting(sim::Rng(21));
  const auto bare_records = deadline_records(bare, human::Glove::Thick, 5);
  const auto counted_records = deadline_records(counting, human::Glove::Thick, 5);
  EXPECT_TRUE(bare_records == counted_records);
  ASSERT_EQ(counting.trials.size(), counted_records.size());
  std::size_t ticks = 0, samples = 0;
  for (std::size_t i = 0; i < counting.trials.size(); ++i) {
    const HandCountingTechnique::Counts& trial = counting.trials[i];
    EXPECT_EQ(trial.hand_samples, trial.remeasures) << "trial " << i;
    EXPECT_LT(trial.hand_samples, trial.ticks) << "trial " << i;
    ticks += trial.ticks;
    samples += trial.hand_samples;
  }
  // The GP2D120's 38.3 ms grid over a 20 ms tick: about every other tick.
  EXPECT_GT(static_cast<double>(samples) / static_cast<double>(ticks), 0.4);
  EXPECT_LT(static_cast<double>(samples) / static_cast<double>(ticks), 0.65);
}

/// Claims a control period but never moves its deadline, so a feeder
/// trusting the period would skip samples the technique reads.
class StaleDeadlineTechnique final : public baselines::ScrollTechnique {
 public:
  std::string name() const override { return "stale"; }
  baselines::ControlSpec spec() const override { return {}; }  // absolute, u in [0, 1]
  void reset(std::size_t, std::size_t) override {}
  std::size_t cursor() const override { return 0; }
  std::size_t level_size() const override { return 4; }
  void on_control(util::Seconds, double) override {}
  double control_period_s() const override { return 0.02; }
  std::optional<double> target_u(std::size_t) const override { return 0.5; }
};

TEST(ControlDeadlineDeathTest, PeriodWithAStaleDeadlineAborts) {
  StaleDeadlineTechnique technique;
  const SelectionTask task{4, 0, 2};
  EXPECT_DEATH((void)run_trial(technique, task, human::UserProfile::average(), sim::Rng(1)),
               "next_control_s");
}

/// Reads the hand's sample 1 before sample 0, breaking the block
/// contract's increasing-k order.
class OutOfOrderReadTechnique final : public baselines::ScrollTechnique {
 public:
  std::string name() const override { return "out-of-order"; }
  baselines::ControlSpec spec() const override { return {}; }  // absolute, u in [0, 1]
  void reset(std::size_t, std::size_t) override {}
  std::size_t cursor() const override { return 0; }
  std::size_t level_size() const override { return 4; }
  void on_control(util::Seconds, double) override {}
  void on_control_block(std::span<const double> now_s, HandSignal hand,
                        std::span<std::size_t> cursors_out) override {
    if (now_s.size() >= 2) {
      (void)hand(1);
      (void)hand(0);
    }
    std::fill(cursors_out.begin(), cursors_out.end(), 0);
  }
  std::optional<double> target_u(std::size_t) const override { return 0.5; }
};

TEST(ControlDeadlineDeathTest, HandReadOutOfOrderAborts) {
  OutOfOrderReadTechnique technique;
  const SelectionTask task{4, 0, 2};
  EXPECT_DEATH((void)run_trial(technique, task, human::UserProfile::average(), sim::Rng(1)),
               "out of order");
}

TEST(BatchTrialRunnerDeathTest, LaneOutsideTheGroupAborts) {
  BatchTrialRunner runner;
  runner.begin_group(2);
  EXPECT_DEATH(runner.init_cell(2, {}, sim::Rng(1), {}, human::UserProfile::average(),
                                sim::Rng(2)),
               "lane");
  EXPECT_DEATH((void)runner.records(2), "lane");
}

// --- device study ------------------------------------------------------------------------

TEST(DeviceStudy, LeafTargetsCoverTree) {
  auto menu_root = menu::make_phone_menu();
  const auto targets = all_leaf_targets(*menu_root);
  EXPECT_GT(targets.size(), 20u);
  for (const auto& t : targets) {
    // Every path resolves to a leaf with the recorded label.
    const menu::MenuNode* node = menu_root.get();
    for (const std::size_t i : t.path) {
      ASSERT_LT(i, node->child_count());
      node = &node->child(i);
    }
    EXPECT_TRUE(node->is_leaf());
    EXPECT_EQ(node->label(), t.label);
  }
}

TEST(DeviceStudy, ParticipantCompletesBlocks) {
  auto menu_root = menu::make_phone_menu();
  DeviceStudyConfig config;
  config.blocks = 2;
  config.trials_per_block = 3;
  const auto result = run_device_participant(*menu_root, human::UserProfile::average(), config,
                                             sim::Rng(10));
  ASSERT_EQ(result.blocks.size(), 2u);
  EXPECT_GT(result.discovery_time_s, 0.5);
  // An average participant succeeds at most trials even in block 0.
  EXPECT_GT(result.blocks[0].success_rate + result.blocks[1].success_rate, 1.0);
}

TEST(DeviceStudy, NovicePracticesToNearlyErrorless) {
  // The Section 6 claim on the production study path: a novice starts
  // rough and, with expertise raised by human::practice between blocks,
  // is nearly errorless by the last block.
  auto menu_root = menu::make_phone_menu();
  DeviceStudyConfig config;
  config.blocks = 4;
  config.trials_per_block = 12;
  const auto result = run_device_participant(*menu_root, human::UserProfile{}.with_expertise(0.15), config,
                                             sim::Rng(8));
  ASSERT_EQ(result.blocks.size(), 4u);
  EXPECT_EQ(result.blocks[0].expertise, human::UserProfile{}.with_expertise(0.15).expertise);
  for (std::size_t b = 1; b < result.blocks.size(); ++b) {
    EXPECT_EQ(result.blocks[b].expertise,
              human::practice(result.blocks[b - 1].expertise, kDeviceLearningRate))
        << "block " << b;
  }
  // Later blocks at least as fast as the first; the last nearly errorless.
  EXPECT_LE(result.blocks.back().mean_time_s, result.blocks.front().mean_time_s * 1.05);
  EXPECT_GT(result.blocks.back().success_rate, 0.9);
}

// --- report ---------------------------------------------------------------------------------

TEST(Report, TableRendersAligned) {
  Table table({"technique", "time", "errors"});
  table.add_row("DistScroll", {1.234, 0.05});
  table.add_row({"ButtonScroll", "2.5", "0.01"});
  const std::string out = table.render();
  EXPECT_NE(out.find("DistScroll"), std::string::npos);
  EXPECT_NE(out.find("1.234"), std::string::npos);
  // All lines share the same width.
  std::size_t first_len = out.find('\n');
  for (std::size_t pos = 0; pos < out.size();) {
    const std::size_t next = out.find('\n', pos);
    if (next == std::string::npos) break;
    EXPECT_EQ(next - pos, first_len);
    pos = next + 1;
  }
}

TEST(Report, FmtPrecision) {
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmt(1.0, 0), "1");
}

}  // namespace
}  // namespace distscroll::study
