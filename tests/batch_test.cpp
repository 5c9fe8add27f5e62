// Grouped == per-cell sweep results for BatchTrialRunner.
//
// The contract under test (DESIGN.md §11): for every DistScroll
// configuration the benches sweep, a cell run through a
// BatchTrialRunner group produces the EXACT TrialRecord bytes of the
// scalar cell body (DistanceScroll + run_trials), at any thread count
// and any group width, including the CSV bytes derived from them. The
// groups run on a sim::ThreadPool over group indices with the streams of
// SweepRunner::cell_rng; the 8-thread case runs the thread-local
// runners on a pool, which is what the tsan flavour of scripts/check.sh
// covers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/distance_scroll.h"
#include "human/user_profile.h"
#include "sim/random.h"
#include "sim/thread_pool.h"
#include "study/batch_trials.h"
#include "study/metrics.h"
#include "study/sweep_runner.h"
#include "study/task.h"
#include "study/trial.h"
#include "util/csv.h"

namespace distscroll::study {
namespace {

constexpr std::size_t kCells = 6;
constexpr std::size_t kTrialsPerCell = 6;
constexpr std::size_t kBatchWidth = 3;  // uneven split: last group is smaller

/// One swept configuration, mirroring what the seven exp_* benches
/// actually drive through DistScroll.
struct SweepCase {
  const char* name;
  baselines::DistanceScroll::Config config;
  human::Glove glove = human::Glove::None;
  std::size_t menu = 10;
};

std::vector<SweepCase> sweep_suite() {
  std::vector<SweepCase> cases;
  // exp_scroll_comparison / exp_menu axes: menu size x glove.
  for (const std::size_t menu : {std::size_t{5}, std::size_t{10}, std::size_t{20},
                                 std::size_t{40}}) {
    cases.push_back({"menu", {}, human::Glove::None, menu});
  }
  cases.push_back({"thick-glove", {}, human::Glove::Thick, 10});
  // exp_range_sweep: the six calibrated [near, far] ranges.
  const double ranges[][2] = {{4.0, 12.0}, {4.0, 20.0}, {4.0, 30.0},
                              {4.0, 40.0}, {8.0, 30.0}, {10.0, 50.0}};
  for (const auto& range : ranges) {
    SweepCase c{"range", {}, human::Glove::None, 10};
    c.config.islands.near = util::Centimeters{range[0]};
    c.config.islands.far = util::Centimeters{range[1]};
    cases.push_back(c);
  }
  // Smoothing ablation (exp_scroll_comparison's second sweep).
  for (const auto smoothing : {core::Smoothing::Median3, core::Smoothing::Ema}) {
    SweepCase c{"smoothing", {}, human::Glove::None, 10};
    c.config.scroll.smoothing = smoothing;
    cases.push_back(c);
  }
  // Direction flip, hysteresis band, touching islands.
  {
    SweepCase c{"direction-up", {}, human::Glove::None, 10};
    c.config.scroll.direction = core::ScrollDirection::TowardUserScrollsUp;
    cases.push_back(c);
  }
  {
    SweepCase c{"hysteresis", {}, human::Glove::None, 10};
    c.config.islands.hysteresis_counts = 4;
    cases.push_back(c);
  }
  {
    SweepCase c{"full-coverage", {}, human::Glove::None, 10};
    c.config.islands.coverage = 1.0;
    cases.push_back(c);
  }
  return cases;
}

/// Cell result carrying the full per-trial record bytes.
struct CellOut {
  std::vector<TrialRecord> records;

  friend bool operator==(const CellOut&, const CellOut&) = default;
};

/// The scalar reference cell body — the exact shape every bench runs.
CellOut scalar_cell(const SweepCase& c, std::size_t index, sim::Rng rng) {
  baselines::DistanceScroll technique(c.config, rng.fork(1));
  const auto profile = human::UserProfile::average()
                           .with_expertise(0.25 + 0.1 * static_cast<double>(index))
                           .with_glove(c.glove);
  sim::Rng task_rng = rng.fork(2);
  const auto tasks = random_tasks(task_rng, c.menu, kTrialsPerCell);
  CellOut out;
  out.records = run_trials(technique, tasks, profile, rng.fork(3));
  return out;
}

/// The grouped body: same fork decomposition, one runner lane per cell.
void batched_group(const SweepCase& c, std::size_t first, std::size_t n,
                   std::span<CellOut> out, const SweepRunner& runner) {
  auto& batch = BatchTrialRunner::local();
  batch.begin_group(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t index = first + k;
    sim::Rng rng = runner.cell_rng(index);
    const auto profile = human::UserProfile::average()
                             .with_expertise(0.25 + 0.1 * static_cast<double>(index))
                             .with_glove(c.glove);
    sim::Rng task_rng = rng.fork(2);
    const auto tasks = random_tasks(task_rng, c.menu, kTrialsPerCell);
    batch.init_cell(k, c.config, rng.fork(1), tasks, profile, rng.fork(3));
  }
  batch.run();
  for (std::size_t k = 0; k < n; ++k) {
    const auto records = batch.records(k);
    out[k].records.assign(records.begin(), records.end());
  }
}

std::vector<CellOut> run_scalar(const SweepCase& c, std::size_t threads, std::uint64_t seed) {
  SweepRunner runner({threads, 1, seed});
  return runner.run<CellOut>(kCells, [&](std::size_t index, sim::Rng rng) {
    return scalar_cell(c, index, std::move(rng));
  });
}

/// Groups of kBatchWidth cells, one pool task per group; the per-cell
/// streams and result slots are the ones SweepRunner::run uses.
std::vector<CellOut> run_batched(const SweepCase& c, std::size_t threads, std::uint64_t seed) {
  const SweepRunner streams({1, 1, seed});
  std::vector<CellOut> out(kCells);
  sim::ThreadPool pool(threads);
  pool.parallel_for((kCells + kBatchWidth - 1) / kBatchWidth, [&](std::size_t group) {
    const std::size_t first = group * kBatchWidth;
    const std::size_t n = std::min(kBatchWidth, kCells - first);
    batched_group(c, first, n, std::span<CellOut>(out.data() + first, n), streams);
  });
  return out;
}

TEST(BatchKernel, BitIdenticalToScalarAcrossSweepSuiteSingleThread) {
  for (const auto& c : sweep_suite()) {
    const auto expected = run_scalar(c, 1, 0xBA7C4);
    const auto got = run_batched(c, 1, 0xBA7C4);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_TRUE(got[i] == expected[i])
          << c.name << " (menu " << c.menu << "): cell " << i << " diverged";
    }
  }
}

TEST(BatchKernel, BitIdenticalToScalarAcrossSweepSuiteEightThreads) {
  for (const auto& c : sweep_suite()) {
    const auto expected = run_scalar(c, 1, 0xBA7C4);
    const auto got = run_batched(c, 8, 0xBA7C4);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_TRUE(got[i] == expected[i])
          << c.name << " (menu " << c.menu << "): cell " << i << " diverged at 8 threads";
    }
  }
}

/// The CSV a bench would emit from the batched records must be
/// byte-identical to the scalar one — aggregation and formatting see
/// the same bits, so the files compare equal byte for byte.
TEST(BatchKernel, CsvBytesUnchangedByBatchedMode) {
  const SweepCase c{"csv", {}, human::Glove::None, 10};
  const auto scalar = run_scalar(c, 1, 0xC511);
  const auto batched = run_batched(c, 1, 0xC511);

  const auto write_csv = [](const std::string& path, const std::vector<CellOut>& cells) {
    util::CsvWriter csv(path, {"cell", "mean_time_s", "success_rate", "errors_per_trial"});
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const auto agg = aggregate(cells[i].records);
      csv.row({static_cast<double>(i), agg.mean_time_s, agg.success_rate, agg.error_rate});
    }
  };
  const std::string scalar_path = testing::TempDir() + "/batch_scalar.csv";
  const std::string batched_path = testing::TempDir() + "/batch_batched.csv";
  write_csv(scalar_path, scalar);
  write_csv(batched_path, batched);

  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  };
  const std::string scalar_bytes = slurp(scalar_path);
  ASSERT_FALSE(scalar_bytes.empty());
  EXPECT_EQ(slurp(batched_path), scalar_bytes);
}

}  // namespace
}  // namespace distscroll::study
