// perfbench: the repository benchmark harness. One process runs one
// workload:
//
//   perfbench --workload <q1_sweep|fleet_distscroll|host_ingest|host_overload>
//             --seed N --seconds S --trace <0|1> [--inject-delay-ns D]
//
// A run sets up, runs the warm-up pass that yields the reference output,
// and times set-up alone in fresh copies of itself (setup_s, see
// setup_probe_s). Then it alternates untraced passes at 1 thread and at
// T threads (T = the CPUs this process may run on, as nproc counts them)
// until S seconds have passed. Each 1-thread pass runs pinned to the next
// CPU in turn, between two runs of the speed reference. With --trace 1 a
// traced 1-thread pass follows each round of untraced passes, and the run
// reports the per-layer metrics instead. It ends with a check of the same
// workload on a held-out seed. Every pass is byte-compared with the
// reference output; a mismatch fails the run (exit 1). The last line of
// stdout is one JSON object.
#include <fcntl.h>
#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"

namespace perfbench {

double clock_read_ns() {
  std::vector<double> deltas(20001);
  for (double& d : deltas) {
    const std::int64_t a = now_ns();
    const std::int64_t b = now_ns();
    d = static_cast<double>(b - a);
  }
  return median(std::move(deltas));
}

void spin_ns(double ns) {
  const std::int64_t until = now_ns() + static_cast<std::int64_t>(ns);
  while (now_ns() < until) {
  }
}

double LayerTrace::value(const std::string& name) const {
  if (const auto it = fixed_.find(name); it != fixed_.end()) return it->second;
  if (const auto it = sums_.find(name); it != sums_.end() && passes_ > 0) {
    return it->second / static_cast<double>(passes_);
  }
  return 0.0;
}

double LayerTrace::layer_seconds() const {
  double total = 0.0;
  for (const MetricDef& def : kLayerMetrics) {
    const std::string name = def.name;
    const auto ends_with = [&](const char* suffix) {
      const std::size_t n = std::strlen(suffix);
      return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
    };
    if (ends_with(".busy_s") || ends_with(".self_s") || ends_with(".construct_s") ||
        ends_with(".finish_s")) {
      total += value(name);
    }
  }
  return total;
}

void Workload::fail(const char* fmt, ...) {
  ++check_failures_;
  std::va_list args;
  va_start(args, fmt);
  std::fputs("perfbench: CHECK FAILED: ", stderr);
  std::vfprintf(stderr, fmt, args);
  std::fputc('\n', stderr);
  va_end(args);
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

}  // namespace perfbench

namespace {

using namespace perfbench;

constexpr int kExitOk = 0;
constexpr int kExitFail = 1;
constexpr int kExitUsage = 64;

/// Fresh processes whose set-up is timed; setup_s is their median. The
/// first few run slower (page cache, idle CPUs waking) and are dropped.
constexpr int kSetupProbes = 15;
constexpr int kSetupProbesDropped = 3;
/// Fewest timed passes per kind, whatever --seconds says.
constexpr std::size_t kMinPasses = 3;
/// Share of a round's wall time given to T-thread passes (at least one
/// per round); the gated 1-thread passes get the rest.
constexpr double kMultiThreadShare = 0.25;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <q1_sweep|fleet_distscroll|host_ingest|host_overload>\n"
               "                 --seed N --seconds S --trace <0|1> [--inject-delay-ns D]\n");
  return kExitUsage;
}

bool parse_u64(const char* text, std::uint64_t& out) {
  if (text == nullptr || *text == '\0' || *text == '-') return false;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  out = value;
  return true;
}

bool parse_double(const char* text, double& out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(value) || value < 0.0) return false;
  out = value;
  return true;
}

std::size_t affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  const int n = CPU_COUNT(&set);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

/// Peak resident set of this process image (VmHWM). getrusage's
/// ru_maxrss would also count the parent's RSS from before exec.
double peak_rss_mib() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(status);
  return kib / 1024.0;
}

/// A held-out seed derived from the run's seed, checked at the end of
/// every run and never used for tuning.
std::uint64_t holdout_seed(std::uint64_t seed) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

struct Totals {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void add(const PassResult& r) {
    attempted += r.attempted;
    failed += r.failed;
  }
};

struct Rates {
  std::vector<double> rate_1t;  // as measured
  std::vector<double> norm_1t;  // scaled to the nominal host speed
  std::vector<double> speed;    // the speed reference around each 1-thread pass
  std::vector<double> rate_mt;
  std::vector<double> wall_1t;
};

/// Pins the calling thread to one CPU at a time, in turn, so that every
/// CPU of the run carries its share of the 1-thread passes, and the speed
/// reference runs where the pass runs. Threads a pass starts inherit the
/// pin.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof all_, &all_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &all_)) cpus_.push_back(cpu);
    }
  }
  void pin_next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    (void)sched_setaffinity(0, sizeof one, &one);
  }
  void unpin() {
    if (!cpus_.empty()) (void)sched_setaffinity(0, sizeof all_, &all_);
  }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// One untraced pass at 1 thread, on the next CPU and between two runs of
/// the speed reference, then T-thread passes for a kMultiThreadShare of
/// the round (at least one).
void untraced_round(Workload& w, std::size_t threads, CpuRotation& cpus, SpeedReference& reference,
                    Totals& totals, Rates& rates) {
  cpus.pin_next();
  const double before = reference.speed();
  const PassResult one = w.pass(1);
  const double after = reference.speed();
  cpus.unpin();
  totals.add(one);
  const double rate = static_cast<double>(one.ops) / one.wall_s;
  const double speed = 0.5 * (before + after);
  rates.rate_1t.push_back(rate);
  rates.norm_1t.push_back(rate / speed);
  rates.speed.push_back(speed);
  rates.wall_1t.push_back(one.wall_s);
  const double mt_budget = kMultiThreadShare / (1.0 - kMultiThreadShare) * one.wall_s;
  for (double spent = 0.0; spent == 0.0 || spent < mt_budget;) {
    const PassResult many = w.pass(threads);
    totals.add(many);
    rates.rate_mt.push_back(static_cast<double>(many.ops) / many.wall_s);
    spent += many.wall_s;
  }
}

/// Time from spawning a fresh copy of this program to the end of its
/// set-up (`--setup-probe`): process start, static initialisation,
/// argument parsing, the workload's inputs and runners. The warm-up pass
/// is not run. Negative when the copy could not be run.
double setup_probe_s(const Options& options) {
  int out[2];
  if (pipe(out) != 0) return -1.0;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, out[0]);
  posix_spawn_file_actions_addclose(&actions, out[1]);
  std::string workload = options.workload;
  std::string seed = std::to_string(options.seed);
  std::string spawned = std::to_string(now_ns());
  char exe[] = "/proc/self/exe";
  char workload_flag[] = "--workload";
  char seed_flag[] = "--seed";
  char probe_flag[] = "--setup-probe";
  char* argv[] = {exe,        workload_flag, workload.data(), seed_flag,
                  seed.data(), probe_flag,    spawned.data(),  nullptr};
  pid_t pid = 0;
  const int spawn_error = posix_spawn(&pid, exe, &actions, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  close(out[1]);
  std::string text;
  char buf[64];
  for (ssize_t n; spawn_error == 0 && (n = read(out[0], buf, sizeof buf)) > 0;) text.append(buf, n);
  close(out[0]);
  if (spawn_error != 0) return -1.0;
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return -1.0;
  }
  double seconds = -1.0;
  return std::sscanf(text.c_str(), "%lf", &seconds) == 1 ? seconds : -1.0;
}

void json_metric(std::string& out, const char* name, double value, const char* unit) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                out.empty() ? "" : ", ", name, value, unit);
  out += buf;
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t process_start_ns = now_ns();
  Options options;
  bool have_trace = false;
  std::uint64_t probe_spawned_ns = 0;  // --setup-probe: when the parent spawned this copy
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
    std::uint64_t u = 0;
    if (std::strcmp(arg, "--workload") == 0 && next != nullptr) {
      options.workload = next;
    } else if (std::strcmp(arg, "--seed") == 0 && parse_u64(next, options.seed)) {
    } else if (std::strcmp(arg, "--seconds") == 0 && parse_double(next, options.seconds) &&
               options.seconds > 0.0) {
    } else if (std::strcmp(arg, "--trace") == 0 && parse_u64(next, u) && u <= 1) {
      options.trace = u == 1;
      have_trace = true;
    } else if (std::strcmp(arg, "--inject-delay-ns") == 0 &&
               parse_double(next, options.inject_delay_ns)) {
    } else if (std::strcmp(arg, "--setup-probe") == 0 && parse_u64(next, probe_spawned_ns)) {
    } else {
      return usage();
    }
    ++i;
  }
  const bool probe = probe_spawned_ns != 0;
  if (options.workload.empty() || (!have_trace && !probe)) return usage();
  options.threads = affinity_cpus();

  std::unique_ptr<Workload> workload;
  if (options.workload == "q1_sweep") {
    workload = make_q1_sweep(options);
  } else if (options.workload == "fleet_distscroll") {
    workload = make_fleet(options);
  } else if (options.workload == "host_ingest") {
    workload = make_host(options, /*overload=*/false);
  } else if (options.workload == "host_overload") {
    workload = make_host(options, /*overload=*/true);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", options.workload.c_str());
    return usage();
  }
  Workload& w = *workload;
  w.setup(options.seed);
  if (probe) {
    const std::int64_t spawned = static_cast<std::int64_t>(probe_spawned_ns);
    std::printf("%.9f\n", static_cast<double>(now_ns() - spawned) * 1e-9);
    return kExitOk;
  }
  const std::size_t T = options.threads;
  const std::string tag = "[" + options.workload + "]";
  const bool device = std::strcmp(w.op_name(), "trials") == 0;
  std::printf("%s seed %" PRIu64 ", T = %zu threads, %s\n", tag.c_str(), options.seed, T,
              w.input_summary().c_str());

  // The warm-up pass at T threads yields the reference output and warms
  // lazy state (the calling thread takes part). It is not set-up.
  const double warm_up_t0 = now_s();
  w.warm_up();
  std::printf("%s warm-up pass %.4f s at %zu threads (%.4f s after process start)\n",
              tag.c_str(), now_s() - warm_up_t0, T,
              static_cast<double>(now_ns() - process_start_ns) * 1e-9);

  // Set-up is timed in fresh copies of this program, so that each sample
  // pays for process start, and the warm-up pass is left out.
  std::vector<double> setups;
  for (int k = 0; k < kSetupProbesDropped + kSetupProbes; ++k) {
    const double s = setup_probe_s(options);
    if (s <= 0.0) {
      std::fprintf(stderr, "perfbench: the set-up probe (a fresh copy of this program) failed\n");
      return kExitFail;
    }
    if (k >= kSetupProbesDropped) setups.push_back(s);
  }
  const double setup_s = median(setups);
  std::printf("%s setup_s %.6f s (median of %d fresh processes, %.6f..%.6f; process start to "
              "the first pass, warm-up excluded)\n",
              tag.c_str(), setup_s, kSetupProbes, *std::min_element(setups.begin(), setups.end()),
              *std::max_element(setups.begin(), setups.end()));

  Totals totals;
  Rates rates;
  LayerTrace trace;
  CpuRotation cpus;
  SpeedReference reference;
  std::vector<double> traced_wall;
  const double deadline = now_s() + options.seconds;
  while (now_s() < deadline || rates.rate_1t.size() < kMinPasses ||
         (options.trace && traced_wall.size() < kMinPasses)) {
    untraced_round(w, T, cpus, reference, totals, rates);
    if (!options.trace) continue;
    // Traced passes interleave with untraced ones, so both see the same
    // host load and trace.overhead / trace.coverage compare like with like.
    const PassResult r = w.traced_pass(trace);
    trace.end_pass();
    totals.add(r);
    traced_wall.push_back(r.wall_s);
  }
  if (options.trace) w.finish_trace(trace);

  // The gated throughput is the median 1-thread rate, each pass scaled
  // by the speed reference run around it. On a shared host, co-tenant
  // load slows stretches of passes by up to 40 % for minutes at a time;
  // the reference slows with the pass, so the scaled rate holds still
  // where the raw one drifts (README.md has the measured spreads).
  const std::vector<double>& rate_1t = rates.rate_1t;
  const std::vector<double>& rate_mt = rates.rate_mt;
  const double norm_1t = median(rates.norm_1t);
  const double ops_1t = *std::max_element(rate_1t.begin(), rate_1t.end());
  const double ops_mt = *std::max_element(rate_mt.begin(), rate_mt.end());
  const char* rate_name = device ? "trials_per_s" : "frames_per_s";
  std::printf("%s ops_per_s_1t_norm %.1f 1/s (median of %zu passes scaled to the nominal host "
              "speed; quartiles %.1f..%.1f)\n",
              tag.c_str(), norm_1t, rates.norm_1t.size(), quantile(rates.norm_1t, 0.25),
              quantile(rates.norm_1t, 0.75));
  std::printf("%s host speed around those passes (reference / nominal): median %.3f, "
              "%.3f..%.3f\n",
              tag.c_str(), median(rates.speed),
              *std::min_element(rates.speed.begin(), rates.speed.end()),
              *std::max_element(rates.speed.begin(), rates.speed.end()));
  std::printf("%s %s_1t %.1f 1/s as measured (best of %zu passes; median %.1f, quartiles "
              "%.1f..%.1f)\n",
              tag.c_str(), rate_name, ops_1t, rate_1t.size(), median(rate_1t),
              quantile(rate_1t, 0.25), quantile(rate_1t, 0.75));
  std::printf("%s %s_mt %.1f 1/s at %zu threads as measured (best of %zu passes; median %.1f, "
              "quartiles %.1f..%.1f)\n",
              tag.c_str(), rate_name, ops_mt, T, rate_mt.size(), median(rate_mt),
              quantile(rate_mt, 0.25), quantile(rate_mt, 0.75));
  w.print_extra(tag);
  const double rss = peak_rss_mib();
  std::printf("%s peak_rss_mib %.2f MiB\n", tag.c_str(), rss);

  // Held-out seed: the same checks on inputs nobody tunes against.
  const std::uint64_t main_digest = w.digest();
  const std::uint64_t holdout = holdout_seed(options.seed);
  w.setup(holdout);
  w.warm_up();
  totals.add(w.pass(1));
  std::printf("%s output digest %016" PRIx64 " (seed %" PRIu64 "), held-out seed %" PRIu64
              " digest %016" PRIx64 "\n",
              tag.c_str(), main_digest, options.seed, holdout, w.digest());

  const bool correct = w.check_failures() == 0 && totals.failed == 0;
  std::printf("%s operations: %" PRIu64 " %s attempted, %" PRIu64
              " failed; correctness checks %s\n",
              tag.c_str(), totals.attempted, w.op_name(), totals.failed,
              correct ? "passed" : "FAILED");

  std::string metrics;
  if (!options.trace) {
    json_metric(metrics, "setup_s", setup_s, "s");
    json_metric(metrics, "ops_per_s_1t_norm", norm_1t, "1/s");
    json_metric(metrics, "peak_rss_mib", rss, "MiB");
  } else {
    const double traced_mean = mean(traced_wall);
    const double untraced_mean = mean(rates.wall_1t);
    trace.set("sim.thread_pool.efficiency", ops_mt / (static_cast<double>(T) * ops_1t));
    trace.set("trace.overhead", traced_mean / untraced_mean);
    trace.set("trace.coverage", trace.layer_seconds() / traced_mean);
    std::printf("%s traced: %zu passes, mean wall %.4f s, layers cover %.1f%%, overhead %.3fx\n",
                tag.c_str(), traced_wall.size(), traced_mean,
                100.0 * trace.value("trace.coverage"), trace.value("trace.overhead"));
    for (const MetricDef& def : kLayerMetrics) {
      const double v = trace.value(def.name);
      if (v != 0.0) std::printf("%s   %-40s %.6g %s\n", tag.c_str(), def.name, v, def.unit);
      json_metric(metrics, def.name, v, def.unit);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {%s}}\n",
              correct ? "true" : "false", totals.attempted, totals.failed, metrics.c_str());
  std::fflush(stdout);
  return correct ? kExitOk : kExitFail;
}
