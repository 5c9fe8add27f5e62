// Shared pieces of the repository benchmark: the wall clock, call
// meters for the traced run, the per-layer metric table, output digests
// and the interface every workload implements.
//
// The benchmark drives the simulator only through its public entry
// points (study::SweepRunner + study::run_trials, study::run_fleet,
// host::run_host_ingest). The traced run re-composes those entry points
// from the same public classes and times the calls from here, so no
// file under src/ carries instrumentation.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

// --- clock --------------------------------------------------------------------

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

/// Median cost of one clock read, as seen by a back-to-back pair. A
/// timed interval is biased by about this much; the traced run takes it
/// off each interval.
[[nodiscard]] double clock_read_ns();

/// Busy-wait for `ns` nanoseconds (the sensitivity self-test's slowdown).
void spin_ns(double ns);

/// A fixed kernel shaped like the simulator's code (indirect calls,
/// data-dependent branches, floating point, pointer chasing over 2 MiB).
/// The 1-thread passes are scaled by its speed, so that co-tenant load on
/// a shared host cancels out of the gated throughput.
class SpeedReference {
 public:
  struct Node {
    std::uint32_t next;
    std::uint32_t kind;
    double a, b, c;
  };
  /// The kernel's speed that counts as 1: about its median speed on the
  /// measurement host.
  static constexpr double kNominalStepsPerS = 25e6;

  SpeedReference();
  /// Walk a fixed number of steps (about 20 ms) and return the speed,
  /// relative to kNominalStepsPerS.
  double speed();

 private:
  std::vector<Node> pristine_;
  std::vector<Node> nodes_;
  double sink_ = 0.0;  // keeps the walk's result observable
};

// --- meters -------------------------------------------------------------------

/// Time spent inside one kind of call. `calls` counts every call;
/// `timed` counts the sampled calls whose bias-corrected duration is in
/// `busy_s`. estimate() scales the sample up to all calls.
struct Meter {
  double busy_s = 0.0;
  std::uint64_t calls = 0;
  std::uint64_t timed = 0;

  /// One timed interval [t0, t1) covering `n` calls.
  void add(std::int64_t t0, std::int64_t t1, double bias_ns, std::uint64_t n = 1) {
    busy_s += (static_cast<double>(t1 - t0) - bias_ns) * 1e-9;
    timed += n;
  }
  [[nodiscard]] double estimate() const {
    return timed == 0 ? 0.0
                      : busy_s * static_cast<double>(calls) / static_cast<double>(timed);
  }
};

// --- per-layer metrics ----------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Every per-layer metric the traced run reports, on every workload. A
/// layer the workload bypasses reads 0. Busy times and call counts are
/// per traced pass. Must match "per_layer" in BENCHMARK.json (run.py
/// checks).
inline constexpr MetricDef kLayerMetrics[] = {
    {"study.trial_setup.busy_s", "s"},
    {"study.trial_setup.calls", "count"},
    {"study.batch_run.busy_s", "s"},
    {"study.batch_run.calls", "count"},
    {"study.fold.busy_s", "s"},
    {"study.fold.calls", "count"},
    {"study.merge.busy_s", "s"},
    {"study.merge.calls", "count"},
    {"human.planner.self_s", "s"},
    {"human.sample_participant.busy_s", "s"},
    {"human.sample_participant.calls", "count"},
    {"baselines.DistScroll.control.busy_s", "s"},
    {"baselines.DistScroll.control.calls", "count"},
    {"baselines.DistScroll.reset.busy_s", "s"},
    {"baselines.DistScroll.reset.calls", "count"},
    {"baselines.DistScroll.query.busy_s", "s"},
    {"baselines.TiltScroll.control.busy_s", "s"},
    {"baselines.TiltScroll.control.calls", "count"},
    {"baselines.TiltScroll.reset.busy_s", "s"},
    {"baselines.TiltScroll.reset.calls", "count"},
    {"baselines.TiltScroll.query.busy_s", "s"},
    {"baselines.RadialScroll.control.busy_s", "s"},
    {"baselines.RadialScroll.control.calls", "count"},
    {"baselines.RadialScroll.reset.busy_s", "s"},
    {"baselines.RadialScroll.reset.calls", "count"},
    {"baselines.RadialScroll.query.busy_s", "s"},
    {"study.run_trials.YoYoWheel.busy_s", "s"},
    {"study.run_trials.ButtonScroll.busy_s", "s"},
    {"host.link.construct_s", "s"},
    {"host.link.step_window.busy_s", "s"},
    {"host.link.step_window.calls", "count"},
    {"host.link.queue_ack.busy_s", "s"},
    {"host.queue.pop_batch.busy_s", "s"},
    {"host.queue.pop_batch.calls", "count"},
    {"host.registry.admit.busy_s", "s"},
    {"host.registry.admit.calls", "count"},
    {"host.verify.busy_s", "s"},
    {"host.verify.calls", "count"},
    {"host.columnar.append.busy_s", "s"},
    {"host.columnar.append.calls", "count"},
    {"host.columnar.finish_s", "s"},
    {"host.drain.serial_share", "ratio"},
    {"host.queue.max_depth", "count"},
    {"host.reports_shed", "count"},
    {"host.reports_undelivered", "count"},
    {"host.devices_never_admitted", "count"},
    {"host.fairness_jain", "ratio"},
    {"wireless.parse.busy_s", "s"},
    {"wireless.parse.calls", "count"},
    {"wireless.crc_rejected", "count"},
    {"wireless.arq.retransmissions", "count"},
    {"wireless.arq.useful_ratio", "ratio"},
    {"sim.thread_pool.efficiency", "ratio"},
    {"trace.coverage", "ratio"},
    {"trace.overhead", "ratio"},
    {"trace.sample_rate", "ratio"},
};

/// Layer values gathered over the traced passes. add() sums a per-pass
/// quantity (divided by the pass count at the end); set() records a
/// value that is the same on every pass (counts fixed by the seed).
class LayerTrace {
 public:
  void add(const std::string& name, double value) { sums_[name] += value; }
  void set(const std::string& name, double value) { fixed_[name] = value; }
  void end_pass() { ++passes_; }
  /// Per-pass value of `name` (0 when never recorded).
  [[nodiscard]] double value(const std::string& name) const;
  /// Sum of every "*.busy_s", "*.self_s", "*.construct_s" and
  /// "*.finish_s" per-pass value: the time the layers account for.
  [[nodiscard]] double layer_seconds() const;

 private:
  std::map<std::string, double> sums_;
  std::map<std::string, double> fixed_;
  std::size_t passes_ = 0;
};

// --- digests ------------------------------------------------------------------

/// FNV-1a over the bytes of a workload's outputs: printed so that a
/// change to the result bytes is visible, never gated.
class Digest {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001B3ull;
    }
  }
  template <typename T>
  void value(const T& v) {
    bytes(&v, sizeof v);
  }
  [[nodiscard]] std::uint64_t hash() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ull;
};

// --- workloads ----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t threads = 1;       // T for the multi-thread passes
  double inject_delay_ns = 0.0;  // spin per DistScroll control call
};

/// One timed pass: `ops` is the throughput numerator (trials or accepted
/// frames), `attempted` / `failed` the operations and failed ones.
struct PassResult {
  double wall_s = 0.0;
  std::uint64_t ops = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// What one operation is: "trials" or (offered) "reports".
  [[nodiscard]] virtual const char* op_name() const = 0;
  [[nodiscard]] virtual std::string input_summary() const = 0;

  /// Build the inputs and runners for `seed`: everything a user pays for
  /// before the first pass (part of setup_s).
  virtual void setup(std::uint64_t seed) = 0;
  /// Run the warm-up pass at T threads and keep its output as the
  /// reference every later pass — 1-thread and T-thread — is
  /// byte-compared with. Not part of setup_s.
  virtual void warm_up() = 0;
  /// One untraced pass through the public entry point.
  virtual PassResult pass(std::size_t threads) = 0;
  /// One traced 1-thread pass (the re-composed or decorated path),
  /// byte-compared with the reference; fills `trace`.
  virtual PassResult traced_pass(LayerTrace& trace) = 0;
  /// Set the workload's fixed layer values and sample rate after tracing.
  virtual void finish_trace(LayerTrace& trace) = 0;
  /// Digest of the reference outputs.
  [[nodiscard]] virtual std::uint64_t digest() const = 0;
  /// Print workload-specific end-to-end figures (q1 cell percentiles).
  virtual void print_extra(const std::string& tag) const { (void)tag; }
  /// Correctness failures seen so far (mismatched bytes, broken
  /// invariants), each described on stderr as it happens.
  [[nodiscard]] std::uint64_t check_failures() const { return check_failures_; }

 protected:
  void fail(const char* fmt, ...) __attribute__((format(printf, 2, 3)));

 private:
  std::uint64_t check_failures_ = 0;
};

std::unique_ptr<Workload> make_q1_sweep(const Options& options);
std::unique_ptr<Workload> make_fleet(const Options& options);
std::unique_ptr<Workload> make_host(const Options& options, bool overload);

// --- statistics ---------------------------------------------------------------

[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double mean(const std::vector<double>& values);
/// Linear-interpolated quantile q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> values, double q);

}  // namespace perfbench
