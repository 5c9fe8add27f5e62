// Section 7, Q5 / Section 5.1: "Is it more intuitive to scroll down
// towards oneself or away from oneself?"
//
// We model the population prior: most users expect "pulling toward me =
// pulling the list toward me = scroll down" (document-metaphor users)
// while a minority holds the opposite (scrollbar-metaphor users). A
// participant whose prior CONFLICTS with the device mapping starts with
// inverted aim (they reach the wrong way first), un-learning it over
// trials. The experiment measures both mappings over a mixed population.
//
// Each (mapping, participant) pair is one SweepRunner cell (RNG forked
// off the cell index; bit-identical at any thread count), timed into
// BENCH_exp_direction_mapping.json.
#include <algorithm>
#include <cstdio>
#include <span>

#include "baselines/distance_scroll.h"
#include "study/report.h"
#include "study/sweep_runner.h"
#include "study/task.h"
#include "study/trial.h"
#include "util/csv.h"

using namespace distscroll;

namespace {

constexpr std::size_t kUsers = 10;
constexpr std::size_t kTrialsPerUser = 12;

/// Wraps DistanceScroll: a participant with a conflicting mental model
/// initially aims at the mirrored entry; the confusion probability
/// decays as they adapt.
class ConflictedAim final : public baselines::ScrollTechnique {
 public:
  ConflictedAim(baselines::DistanceScroll& inner, double initial_confusion, sim::Rng rng)
      : inner_(&inner), confusion_(initial_confusion), rng_(rng) {}

  std::string name() const override { return inner_->name(); }
  baselines::ControlSpec spec() const override { return inner_->spec(); }
  void reset(std::size_t level_size, std::size_t start) override {
    inner_->reset(level_size, start);
    // Adaptation between trials: confusion decays.
    confusion_ *= 0.7;
  }
  std::size_t cursor() const override { return inner_->cursor(); }
  std::size_t level_size() const override { return inner_->level_size(); }
  void on_control(util::Seconds now, double u) override { inner_->on_control(now, u); }
  double next_control_s() const override { return inner_->next_control_s(); }
  double control_period_s() const override { return inner_->control_period_s(); }
  void on_control_block(std::span<const double> now_s, HandSignal hand,
                        std::span<std::size_t> cursors_out) override {
    inner_->on_control_block(now_s, hand, cursors_out);
  }
  std::optional<double> target_u(std::size_t target) const override {
    if (const_cast<ConflictedAim*>(this)->rng_.bernoulli(confusion_)) {
      // Reaches the wrong way: aims at the mirrored entry.
      return inner_->target_u(inner_->level_size() - 1 - target);
    }
    return inner_->target_u(target);
  }
  double target_width_u(std::size_t target) const override {
    return inner_->target_width_u(target);
  }

 private:
  baselines::DistanceScroll* inner_;
  double confusion_;
  sim::Rng rng_;
};

/// One participant's trials under one mapping; merged per mapping below.
struct CellResult {
  double time_sum = 0.0;
  int time_count = 0;
  double errors = 0.0;
  double first_trial_time = 0.0;

  friend bool operator==(const CellResult&, const CellResult&) = default;
};

CellResult run_user(core::ScrollDirection direction, std::size_t user, sim::Rng rng) {
  // 70% of users expect toward-user = down; 30% the opposite.
  const bool expects_down = user < 7;
  const bool conflicted =
      (direction == core::ScrollDirection::TowardUserScrollsDown) ? !expects_down : expects_down;

  baselines::DistanceScroll::Config config;
  config.scroll.direction = direction;
  baselines::DistanceScroll inner(config, rng.fork(1));
  ConflictedAim technique(inner, conflicted ? 0.8 : 0.05, rng.fork(2));

  sim::Rng task_rng = rng.fork(3);
  const auto tasks = study::random_tasks(task_rng, 10, kTrialsPerUser);
  const auto profile = human::UserProfile::average();
  CellResult result;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const auto record = study::run_trial(technique, tasks[i], profile, rng.fork(100 + i));
    if (record.outcome.success) {
      result.time_sum += record.outcome.time_s;
      ++result.time_count;
    }
    if (i == 0) result.first_trial_time = record.outcome.time_s;
    result.errors += record.outcome.wrong_selections;
  }
  return result;
}

const core::ScrollDirection kMappings[] = {core::ScrollDirection::TowardUserScrollsDown,
                                           core::ScrollDirection::TowardUserScrollsUp};

}  // namespace

int main() {
  std::printf("=== Q5: scroll down toward oneself, or away? ===\n");
  std::printf("population: 70%% expect toward-user = down, 30%% the opposite;\n");
  std::printf("conflicted users initially reach the wrong way, adapting over trials.\n\n");

  const study::SweepGrid grid({std::size(kMappings), kUsers});
  const auto cells = study::timed_sweep<CellResult>(
      "exp_direction_mapping", grid.cells(), 0xD1CE, [&](std::size_t index, sim::Rng rng) {
        return run_user(kMappings[grid.coord(index, 0)], grid.coord(index, 1), rng);
      });
  std::printf("\n");

  study::Table table({"device mapping", "mean time[s]", "err/trial", "first-trial time[s]"});
  util::CsvWriter csv("exp_direction_mapping.csv",
                      {"mapping", "mean_time_s", "errors_per_trial", "first_trial_time_s"});
  for (std::size_t m = 0; m < std::size(kMappings); ++m) {
    const char* name = kMappings[m] == core::ScrollDirection::TowardUserScrollsDown
                           ? "toward-user = DOWN"
                           : "toward-user = UP";
    double time_sum = 0.0, errors = 0.0, first_total = 0.0;
    int time_count = 0;
    for (std::size_t user = 0; user < kUsers; ++user) {
      const auto& cell = cells[grid.index({m, user})];
      time_sum += cell.time_sum;
      time_count += cell.time_count;
      errors += cell.errors;
      first_total += cell.first_trial_time;
    }
    const double mean_time = time_sum / std::max(1, time_count);
    const double err_per_trial = errors / (kUsers * kTrialsPerUser);
    const double first_trial = first_total / kUsers;
    table.add_row({name, study::fmt(mean_time, 2), study::fmt(err_per_trial, 3),
                   study::fmt(first_trial, 2)});
    csv.row({std::vector<std::string>{name, study::fmt(mean_time, 3),
                                      study::fmt(err_per_trial, 3),
                                      study::fmt(first_trial, 3)}});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("expected shape: the majority-compatible mapping (toward-user =\n"
              "down) wins on first-trial time and early errors; the gap narrows\n"
              "with practice — matching the paper's intuition that the choice\n"
              "matters most for walk-up use.\n");
  std::printf("wrote exp_direction_mapping.csv\n");
  return 0;
}
