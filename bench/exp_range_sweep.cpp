// Section 7, Q2: "Is the scrolling range of 4 to 30 cm appropriate?"
//
// Sweep the calibrated [near, far] range and measure selection time and
// error rate on a 10-entry menu. Short ranges squeeze islands below
// motor precision; ranges pushed past ~30 cm run into the sensor's
// resolution floor (the curve flattens, islands collapse to a few ADC
// counts) and past comfortable arm extension.
//
// Each range is one SweepRunner cell (RNG forked off the cell index;
// bit-identical at any thread count), timed into BENCH_exp_range_sweep.json.
#include <cstdio>
#include <vector>

#include "baselines/distance_scroll.h"
#include "study/report.h"
#include "study/sweep_runner.h"
#include "study/task.h"
#include "study/trial.h"
#include "util/csv.h"

using namespace distscroll;

namespace {

struct Range {
  double near, far;
  const char* note;
};

const Range kRanges[] = {
    {4.0, 12.0, "very short throw"},
    {4.0, 20.0, "short throw"},
    {4.0, 30.0, "the paper's range"},
    {4.0, 40.0, "extended (sensor flattens)"},
    {8.0, 30.0, "late start"},
    {10.0, 50.0, "far shifted (resolution floor)"},
};

study::Aggregate run_range(double near_cm, double far_cm, sim::Rng rng) {
  baselines::DistanceScroll::Config config;
  config.islands.near = util::Centimeters{near_cm};
  config.islands.far = util::Centimeters{far_cm};
  baselines::DistanceScroll technique(config, rng.fork(1));
  sim::Rng task_rng = rng.fork(2);
  const auto tasks = study::random_tasks(task_rng, 10, 30);
  const auto records =
      study::run_trials(technique, tasks, human::UserProfile::average(), rng.fork(3));
  return study::aggregate(records);
}

}  // namespace

int main() {
  std::printf("=== Q2: is 4..30 cm appropriate? (10-entry menu, 30 trials each) ===\n\n");
  const auto scalar_cell = [&](std::size_t index, sim::Rng rng) {
    return run_range(kRanges[index].near, kRanges[index].far, rng);
  };
  const auto cells = study::timed_sweep<study::Aggregate>("exp_range_sweep",
                                                         std::size(kRanges), 0xBEEF, scalar_cell);
  std::printf("\n");

  study::Table table({"range[cm]", "note", "time[s]", "success", "err/trial", "corrections"});
  util::CsvWriter csv("exp_range_sweep.csv",
                      {"near_cm", "far_cm", "mean_time_s", "success_rate", "errors_per_trial",
                       "mean_corrections"});
  for (std::size_t i = 0; i < std::size(kRanges); ++i) {
    const auto& range = kRanges[i];
    const auto& agg = cells[i];
    char label[32];
    std::snprintf(label, sizeof(label), "%.0f..%.0f", range.near, range.far);
    table.add_row({label, range.note, study::fmt(agg.mean_time_s, 2),
                   study::fmt(agg.success_rate, 2), study::fmt(agg.error_rate, 2),
                   study::fmt(agg.mean_corrections, 2)});
    csv.row({range.near, range.far, agg.mean_time_s, agg.success_rate, agg.error_rate,
             agg.mean_corrections});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("expected shape: the paper's 4..30 cm sits at/near the optimum —\n"
              "shorter throws crowd the islands (more corrections), far-shifted\n"
              "ranges lose ADC resolution where the curve flattens.\n");
  std::printf("wrote exp_range_sweep.csv\n");
  return 0;
}
