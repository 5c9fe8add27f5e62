// Parallel experiment sweeps with sequential-equivalent results.
//
// A sweep is a grid of stable-indexed cells — (technique, menu size,
// glove, participant, repetition, ...) flattened row-major by SweepGrid.
// SweepRunner executes one cell body per index on a sim::ThreadPool and
// writes each result into a pre-sized slot.
//
// Determinism contract (see DESIGN.md "Parallel experiment engine"):
//  * every cell's randomness derives from sim::Rng(base_seed).fork(index)
//    — keyed on the CELL INDEX, never on scheduling order, thread id or
//    wall clock;
//  * cell bodies are pure functions of (index, rng): no shared mutable
//    state, no draws from a shared stream;
//  * results land in slot `index` of a pre-sized vector, so aggregation
//    and CSV emission walk index order regardless of completion order.
// Under this contract the output is bit-identical to the sequential run
// at ANY thread count — enforced by tests/parallel_test.cpp and by the
// timed_sweep harness, which runs every bench both ways and compares.
#pragma once

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/stage_timer.h"
#include "obs/tracer.h"
#include "sim/random.h"
#include "sim/thread_pool.h"
#include "util/bench_report.h"

namespace distscroll::study {

/// Row-major flattening of a multi-axis condition grid (last axis
/// fastest), so cell index <-> coordinates is stable and explicit.
class SweepGrid {
 public:
  SweepGrid(std::initializer_list<std::size_t> axis_sizes) : axes_(axis_sizes) {
    cells_ = axes_.empty() ? 0 : 1;
    // Precomputed suffix strides: coord() runs per cell per axis in
    // every bench, so it must not redo this O(axes) product each call.
    strides_.resize(axes_.size());
    for (std::size_t a = axes_.size(); a-- > 0;) {
      strides_[a] = cells_;  // product of all axes after `a`
      cells_ *= axes_[a];
    }
  }

  [[nodiscard]] std::size_t cells() const { return cells_; }
  [[nodiscard]] std::size_t axes() const { return axes_.size(); }

  /// Coordinate of flat `index` along `axis`.
  [[nodiscard]] std::size_t coord(std::size_t index, std::size_t axis) const {
    return (index / strides_[axis]) % axes_[axis];
  }

  /// Flat index of a coordinate tuple (must match axes()).
  [[nodiscard]] std::size_t index(std::initializer_list<std::size_t> coords) const {
    std::size_t flat = 0, axis = 0;
    for (const std::size_t c : coords) flat = flat * axes_[axis++] + c;
    return flat;
  }

 private:
  std::vector<std::size_t> axes_;
  std::vector<std::size_t> strides_;
  std::size_t cells_ = 0;
};

struct SweepConfig {
  /// 0 resolves to $DISTSCROLL_THREADS, falling back to
  /// hardware_concurrency. 1 runs strictly sequentially (no pool).
  std::size_t threads = 0;
  std::size_t chunk = 1;  // cells per work-queue claim
  std::uint64_t base_seed = 0;
};

/// Resolve SweepConfig::threads == 0: $DISTSCROLL_THREADS when it is a
/// whole decimal in 1..util::kMaxThreads, otherwise (unset, or rejected
/// with one stderr line naming the value) hardware_concurrency.
[[nodiscard]] std::size_t resolve_sweep_threads(std::size_t requested);

class SweepRunner {
 public:
  explicit SweepRunner(SweepConfig config)
      : config_(config), root_(config.base_seed),
        threads_(resolve_sweep_threads(config.threads)) {
    // A single-threaded sweep needs no pool at all — not even the
    // mutex/condvar object (timed_sweep's sequential pass runs through
    // this path, so the timed reference run carries zero pool overhead).
    if (threads_ > 1) pool_.emplace(threads_);
  }

  [[nodiscard]] std::size_t threads() const { return threads_; }

  /// The cell's private stream: stable for (base_seed, index) and
  /// independent of which thread runs it or when.
  [[nodiscard]] sim::Rng cell_rng(std::size_t index) const { return root_.fork(index); }

  /// Run `body(index, cell_rng(index))` for every cell, result into
  /// slot `index`. Result must be default-constructible.
  template <typename Result, typename Body>
  std::vector<Result> run(std::size_t count, Body&& body) {
    std::vector<Result> slots(count);
    if (pool_) {
      pool_->parallel_for(
          count,
          [&](std::size_t index) { slots[index] = body(index, cell_rng(index)); },
          config_.chunk);
    } else {
      for (std::size_t index = 0; index < count; ++index) {
        slots[index] = body(index, cell_rng(index));
      }
    }
    return slots;
  }

 private:
  SweepConfig config_;
  sim::Rng root_;
  std::size_t threads_;
  std::optional<sim::ThreadPool> pool_;
};

/// Host wall clock for the bench reports (never feeds simulation state).
[[nodiscard]] double sweep_wall_clock_s();

/// Process-wide peak resident set in bytes (getrusage ru_maxrss; 0 where
/// unavailable). Monotone over the process lifetime — flatness across a
/// growing workload is how the fleet bench proves O(aggregates) memory.
[[nodiscard]] std::size_t sweep_peak_rss_bytes();

/// The one bench timing harness: runs the sweep twice, sequentially and
/// then on the resolved thread count, checks the two result vectors
/// compare equal (the determinism contract, checked on every bench run),
/// prints a summary line and writes BENCH_<name>.json. Returns the
/// sequential results. Result must provide operator==.
///
/// The sequential pass is the profiled reference: it times every cell
/// into a `cell_wall` histogram and, with obs::StageProfile installed on
/// this thread (1-in-16 decimation, so the clock reads stay a few percent
/// of the budget), records the stage histograms. The whole registry is
/// embedded as the "metrics" object of BENCH_<name>.json. The parallel
/// pass runs unprofiled, so the registry needs no locking.
template <typename Result, typename Body>
std::vector<Result> timed_sweep(const std::string& name, std::size_t count,
                                std::uint64_t base_seed, Body&& body) {
  obs::MetricsRegistry registry;
  obs::Histogram& cell_wall = registry.histogram("cell_wall", {1e-3, 1e3, "ms"});
  obs::StageProfile stage_profile(registry, /*decimation=*/16);

  SweepRunner sequential({1, 1, base_seed});
  const double t0 = sweep_wall_clock_s();
  auto expected = [&] {
    obs::StageProfile::Install install(stage_profile);
    return sequential.run<Result>(count, [&](std::size_t index, sim::Rng rng) {
      const double cell_t0 = sweep_wall_clock_s();
      Result result = body(index, std::move(rng));
      cell_wall.record(sweep_wall_clock_s() - cell_t0);
      return result;
    });
  }();
  const double t1 = sweep_wall_clock_s();

  SweepRunner parallel({0, 1, base_seed});
  const double t2 = sweep_wall_clock_s();
  auto results = parallel.run<Result>(count, body);
  const double t3 = sweep_wall_clock_s();

  util::BenchReport report;
  report.name = name;
  report.cells = count;
  report.threads = parallel.threads();
  report.hardware_threads = parallel.threads();  // both resolve_sweep_threads(0)
  report.sequential_wall_s = t1 - t0;
  report.parallel_wall_s = t3 - t2;
  report.speedup = report.parallel_wall_s > 0.0
                       ? report.sequential_wall_s / report.parallel_wall_s
                       : 1.0;
  report.bit_identical = results == expected;
  report.tracing_compiled = obs::Tracer::compiled_in();
  report.peak_rss_bytes = sweep_peak_rss_bytes();
  registry.counter("cells_run").set(count);
  report.metrics_json = registry.to_json_fields(4);
  write_bench_report(report);
  std::printf("[%s] %zu cells: %.3f s sequential, %.3f s on %zu threads "
              "(speedup %.2fx, results %s) -> BENCH_%s.json\n",
              name.c_str(), count, report.sequential_wall_s, report.parallel_wall_s,
              report.threads, report.speedup,
              report.bit_identical ? "bit-identical" : "DIVERGED", name.c_str());
  return expected;
}

}  // namespace distscroll::study
