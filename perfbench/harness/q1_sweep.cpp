// q1_sweep: the paper's Section 7 Q1 grid ("is distance-based scrolling
// faster, equal or slower than other scrolling techniques?") with and
// without gloves — 5 techniques x menus {5, 10, 20, 40} x gloves {none,
// thick} x 6 participants of spread expertise, 30 trials per cell,
// through study::SweepRunner and the scalar study::run_trials body.
//
// The traced pass wraps DistScroll, TiltScroll and RadialScroll in a
// forwarding decorator that records every call; after each cell the
// record is replayed on fresh copies of the technique and timed. YoYoWheel
// and ButtonScroll stay unwrapped:
// the motion planner downcasts those two (final) classes to drive their
// clutch and key-hold paths, so a wrapper would change the trial. Their
// cells report run_trials time (planner and technique together).
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "baselines/button_scroll.h"
#include "baselines/distance_scroll.h"
#include "baselines/radial_scroll.h"
#include "baselines/tilt_scroll.h"
#include "baselines/wheel_scroll.h"
#include "harness.h"
#include "study/sweep_runner.h"
#include "study/task.h"
#include "study/trial.h"

namespace perfbench {
namespace {

using namespace distscroll;

constexpr std::size_t kTrials = 30;
constexpr std::size_t kParticipants = 6;
constexpr const char* kTechniques[] = {"DistScroll", "TiltScroll", "YoYoWheel", "ButtonScroll",
                                       "RadialScroll"};
constexpr std::size_t kTechniqueCount = std::size(kTechniques);
constexpr std::size_t kMenus[] = {5, 10, 20, 40};
constexpr human::Glove kGloves[] = {human::Glove::None, human::Glove::Thick};
/// Techniques the traced pass wraps (index into kTechniques).
constexpr bool kDecorated[kTechniqueCount] = {true, true, false, false, true};
/// A trial stops near the planner's timeout (a commit may run past it).
const double kTimeoutS = human::MotionPlanner::Config{}.timeout_s;

/// Expertise spread 0.25..0.75 around the average profile.
double participant_expertise(std::size_t participant) {
  return 0.25 + 0.1 * static_cast<double>(participant);
}

struct CellResult {
  std::array<study::TrialRecord, kTrials> records{};
  friend bool operator==(const CellResult&, const CellResult&) = default;
};

struct TechniqueTrace {
  Meter control;  // on_control, on_step, set_engaged
  Meter reset;
  Meter query;    // name, spec, cursor, level_size, target_u, ...
  Meter trial_setup;  // technique construction + random_tasks
  double run_trials_s = 0.0;
};

/// One call into a technique, as the traced pass records it.
struct Call {
  enum Kind : std::uint8_t {
    kReset, kControl, kStep, kEngage,  // change the technique's state
    kName, kSpec, kCursor, kLevelSize, kTargetU, kTargetWidth, kOneHanded, kGloveSensitivity,
  };
  Kind kind = kName;
  double now = 0.0;
  double u = 0.0;
  std::int64_t a = 0;
  std::int64_t b = 0;
};

/// One DistScroll state-changing call in this many is also timed in
/// place during the traced pass, to check the replay figure against the
/// calls as they run inside the trial.
constexpr std::uint64_t kInPlaceEvery = 16;

/// State of one traced pass (single thread), or — with tracing off —
/// only the injected delay, read-only and safe to share across threads.
struct TraceState {
  bool tracing = false;
  double delay_ns = 0.0;
  double bias_ns = 0.0;     // one clock read, taken off each in-place interval
  std::vector<Call> calls;  // the current cell's technique calls, in order
  double replay_s = 0.0;    // wall time spent replaying them
  Meter in_place;           // DistScroll control calls timed in place
  std::array<TechniqueTrace, kTechniqueCount> techniques{};
};

template <typename T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

/// What a replay runs: every call, every state change, only the resets,
/// or nothing (the replay loop alone).
enum class Replay : std::uint8_t { kAll, kNoQueries, kResetsOnly, kNone };

/// Replays `calls` on a fresh technique built from `args` and returns the
/// wall time. The technique's state is a function of its constructor
/// arguments and its state-changing calls, so the replay does the work
/// the trial did; queries do not change state and may be skipped.
template <typename Inner, typename... Args>
double replay(const std::vector<Call>& calls, const std::tuple<Args...>& args, double delay_ns,
              Replay mode) {
  std::optional<Inner> t;
  std::apply([&](const auto&... a) { t.emplace(a...); }, args);
  const bool state = mode == Replay::kAll || mode == Replay::kNoQueries;
  const std::int64_t t0 = now_ns();
  for (const Call& c : calls) {
    switch (c.kind) {
      case Call::kReset:
        if (mode != Replay::kNone) {
          t->reset(static_cast<std::size_t>(c.a), static_cast<std::size_t>(c.b));
        }
        break;
      case Call::kControl:
        if (!state) break;
        t->on_control(util::Seconds{c.now}, c.u);
        if constexpr (std::is_same_v<Inner, baselines::DistanceScroll>) {
          if (delay_ns > 0.0) spin_ns(delay_ns);
        }
        break;
      case Call::kStep:
        if (state) t->on_step(util::Seconds{c.now}, static_cast<int>(c.a));
        break;
      case Call::kEngage:
        if (state) t->set_engaged(c.a != 0);
        break;
      default:
        if (mode != Replay::kAll) break;
        const auto target = static_cast<std::size_t>(c.a);
        switch (c.kind) {
          case Call::kName: keep(t->name()); break;
          case Call::kSpec: keep(t->spec()); break;
          case Call::kCursor: keep(t->cursor()); break;
          case Call::kLevelSize: keep(t->level_size()); break;
          case Call::kTargetU: keep(t->target_u(target)); break;
          case Call::kTargetWidth: keep(t->target_width_u(target)); break;
          case Call::kOneHanded: keep(t->one_handed()); break;
          default: keep(t->glove_sensitivity()); break;
        }
    }
  }
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

/// Forwards every ScrollTechnique call to the wrapped technique (held by
/// value, so the forwarded calls bind statically) and, when tracing,
/// records it. Timing each call in place would cost a clock read or two
/// per call of tens of nanoseconds; replaying the record afterwards
/// times thousands of calls per clock read instead.
template <typename Inner, typename... Args>
class RecordingTechnique final : public baselines::ScrollTechnique {
 public:
  RecordingTechnique(TraceState& state, Args... args) : inner_(args...), args_(args...), state_(state) {}

  [[nodiscard]] std::string name() const override {
    record({Call::kName});
    return inner_.name();
  }
  [[nodiscard]] baselines::ControlSpec spec() const override {
    record({Call::kSpec});
    return inner_.spec();
  }
  void reset(std::size_t level_size, std::size_t start_index) override {
    record({Call::kReset, 0.0, 0.0, static_cast<std::int64_t>(level_size),
            static_cast<std::int64_t>(start_index)});
    inner_.reset(level_size, start_index);
  }
  [[nodiscard]] std::size_t cursor() const override {
    record({Call::kCursor});
    return inner_.cursor();
  }
  [[nodiscard]] std::size_t level_size() const override {
    record({Call::kLevelSize});
    return inner_.level_size();
  }
  void on_control(util::Seconds now, double u) override {
    record({Call::kControl, now.value, u});
    control([&] {
      inner_.on_control(now, u);
      if constexpr (std::is_same_v<Inner, baselines::DistanceScroll>) {
        if (state_.delay_ns > 0.0) spin_ns(state_.delay_ns);
      }
    });
  }
  void on_step(util::Seconds now, int delta) override {
    record({Call::kStep, now.value, 0.0, delta});
    control([&] { inner_.on_step(now, delta); });
  }
  void set_engaged(bool engaged) override {
    record({Call::kEngage, 0.0, 0.0, engaged ? 1 : 0});
    control([&] { inner_.set_engaged(engaged); });
  }
  [[nodiscard]] std::optional<double> target_u(std::size_t target) const override {
    record({Call::kTargetU, 0.0, 0.0, static_cast<std::int64_t>(target)});
    return inner_.target_u(target);
  }
  [[nodiscard]] double target_width_u(std::size_t target) const override {
    record({Call::kTargetWidth, 0.0, 0.0, static_cast<std::int64_t>(target)});
    return inner_.target_width_u(target);
  }
  [[nodiscard]] bool one_handed() const override {
    record({Call::kOneHanded});
    return inner_.one_handed();
  }
  [[nodiscard]] double glove_sensitivity() const override {
    record({Call::kGloveSensitivity});
    return inner_.glove_sensitivity();
  }

  /// Time the cell's recorded calls by replaying them four ways; the
  /// differences split the technique's time into queries, state-changing
  /// control calls and resets, with the replay loop itself cancelled out.
  void replay_into(TechniqueTrace& trace) const {
    const auto& calls = state_.calls;
    const double d = state_.delay_ns;
    const double all = replay<Inner>(calls, args_, d, Replay::kAll);
    const double no_queries = replay<Inner>(calls, args_, d, Replay::kNoQueries);
    const double resets = replay<Inner>(calls, args_, d, Replay::kResetsOnly);
    const double loop = replay<Inner>(calls, args_, d, Replay::kNone);
    trace.query.busy_s += all - no_queries;
    trace.control.busy_s += no_queries - resets;
    trace.reset.busy_s += resets - loop;
    for (const Call& c : calls) {
      Meter& m = c.kind == Call::kReset                             ? trace.reset
                 : c.kind == Call::kControl || c.kind == Call::kStep ||
                           c.kind == Call::kEngage                   ? trace.control
                                                                     : trace.query;
      ++m.calls;
      ++m.timed;
    }
  }

 private:
  void record(const Call& call) const {
    if (state_.tracing) state_.calls.push_back(call);
  }

  /// Runs a state-changing call; for DistScroll under tracing, times one
  /// in kInPlaceEvery of them where they run (the replay cross-check).
  template <typename Body>
  void control(Body&& body) {
    if constexpr (std::is_same_v<Inner, baselines::DistanceScroll>) {
      if (state_.tracing && state_.in_place.calls++ % kInPlaceEvery == 0) {
        const std::int64_t t0 = now_ns();
        body();
        state_.in_place.add(t0, now_ns(), state_.bias_ns);
        return;
      }
    }
    body();
  }

  Inner inner_;
  std::tuple<Args...> args_;
  TraceState& state_;
};

/// A technique for one cell, and — when the traced pass records it — the
/// replay that times its calls afterwards.
struct CellTechnique {
  std::unique_ptr<baselines::ScrollTechnique> scroll;
  std::function<void(TechniqueTrace&)> replay;
};

template <typename Inner, typename... Args>
CellTechnique recorded(TraceState& state, Args... args) {
  auto t = std::make_unique<RecordingTechnique<Inner, Args...>>(state, args...);
  const auto* raw = t.get();
  return {std::move(t), [raw](TechniqueTrace& trace) { raw->replay_into(trace); }};
}

/// `state` null: the plain technique. Otherwise the recording one — every
/// kDecorated technique when tracing, only DistScroll for a delay.
CellTechnique make_technique(std::size_t technique, sim::Rng rng, TraceState* state) {
  const bool wrap = state != nullptr && (state->tracing ? kDecorated[technique] : technique == 0);
  switch (technique) {
    case 0:
      if (wrap) {
        return recorded<baselines::DistanceScroll>(*state, baselines::DistanceScroll::Config{}, rng);
      }
      return {std::make_unique<baselines::DistanceScroll>(baselines::DistanceScroll::Config{}, rng)};
    case 1:
      if (wrap) return recorded<baselines::TiltScroll>(*state, baselines::TiltScroll::Config{}, rng);
      return {std::make_unique<baselines::TiltScroll>(baselines::TiltScroll::Config{}, rng)};
    case 2:
      return {std::make_unique<baselines::WheelScroll>(baselines::WheelScroll::Config{}, rng)};
    case 3:
      return {std::make_unique<baselines::ButtonScroll>()};
    default:
      if (wrap) return recorded<baselines::RadialScroll>(*state);
      return {std::make_unique<baselines::RadialScroll>()};
  }
}

class Q1Sweep final : public Workload {
 public:
  explicit Q1Sweep(const Options& options)
      : options_(options),
        grid_({kTechniqueCount, std::size(kMenus), std::size(kGloves), kParticipants}),
        bias_ns_(options.trace ? clock_read_ns() : 0.0) {
    delay_state_.delay_ns = options.inject_delay_ns;
  }

  [[nodiscard]] const char* op_name() const override { return "trials"; }
  [[nodiscard]] std::string input_summary() const override {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%zu cells x %zu trials = %zu trials per pass%s",
                  grid_.cells(), kTrials, grid_.cells() * kTrials,
                  options_.inject_delay_ns > 0.0 ? " (injected DistScroll delay)" : "");
    return buf;
  }

  void setup(std::uint64_t seed) override {
    sequential_.emplace(study::SweepConfig{1, 1, seed});
    parallel_.emplace(study::SweepConfig{options_.threads, 1, seed});
  }

  void warm_up() override { reference_ = run(*parallel_, nullptr, false); }

  PassResult pass(std::size_t threads) override {
    const bool one = threads == 1;
    const double t0 = now_s();
    const auto results = run(one ? *sequential_ : *parallel_, nullptr, one);
    untraced_passes_1t_ += one ? 1 : 0;
    return finish_pass(results, now_s() - t0, threads);
  }

  PassResult traced_pass(LayerTrace& trace) override {
    TraceState state;
    state.tracing = true;
    state.delay_ns = options_.inject_delay_ns;
    state.bias_ns = bias_ns_;
    const double t0 = now_s();
    const auto results = run(*sequential_, &state, false);
    // The replays are timing work, not part of the traced run.
    const PassResult r = finish_pass(results, now_s() - t0 - state.replay_s, 1);

    // The planner's self time is run_trials minus the technique calls
    // inside it. run_trials is taken from the untraced 1-thread passes
    // (cell wall less trial set-up), so the recording decorator does not
    // count as planner time.
    double planner_s = 0.0;
    for (std::size_t t = 0; t < kTechniqueCount; ++t) {
      const TechniqueTrace& tt = state.techniques[t];
      trace.add("study.trial_setup.busy_s", tt.trial_setup.estimate());
      trace.add("study.trial_setup.calls", static_cast<double>(tt.trial_setup.calls));
      if (!kDecorated[t]) {
        trace.add(std::string("study.run_trials.") + kTechniques[t] + ".busy_s", tt.run_trials_s);
        continue;
      }
      const double untraced_run_trials_s =
          untraced_cell_s_[t] / static_cast<double>(untraced_passes_1t_) -
          tt.trial_setup.estimate();
      planner_s += untraced_run_trials_s - tt.control.estimate() - tt.reset.estimate() -
                   tt.query.estimate();
      const std::string prefix = std::string("baselines.") + kTechniques[t];
      trace.add(prefix + ".control.busy_s", tt.control.estimate());
      trace.add(prefix + ".control.calls", static_cast<double>(tt.control.calls));
      trace.add(prefix + ".reset.busy_s", tt.reset.estimate());
      trace.add(prefix + ".reset.calls", static_cast<double>(tt.reset.calls));
      trace.add(prefix + ".query.busy_s", tt.query.estimate());
    }
    trace.add("human.planner.self_s", planner_s);
    in_place_control_s_ += state.in_place.estimate();
    replay_control_s_ += state.techniques[0].control.estimate();
    return r;
  }

  void finish_trace(LayerTrace& trace) override {
    trace.set("trace.sample_rate", 1.0);
  }

  [[nodiscard]] std::uint64_t digest() const override {
    Digest d;
    for (const CellResult& cell : reference_) {
      for (const study::TrialRecord& r : cell.records) {
        d.value(r.outcome.success);
        d.value(r.outcome.time_s);
        d.value(r.outcome.corrective_movements);
        d.value(r.outcome.overshoots);
        d.value(r.outcome.wrong_selections);
        d.value(r.outcome.id_bits);
        d.value(r.level_size);
        d.value(r.scroll_distance);
      }
    }
    return d.hash();
  }

  void print_extra(const std::string& tag) const override {
    std::printf("%s cell_ms_p50 %.4f ms, cell_ms_p99 %.4f ms (1 thread, %zu cells)\n",
                tag.c_str(), quantile(cell_ms_, 0.5), quantile(cell_ms_, 0.99), cell_ms_.size());
    if (replay_control_s_ > 0.0) {
      std::printf("%s DistScroll control over all traced passes: replay %.4f s, in place %.4f s "
                  "(1 call in %" PRIu64 " timed inside the trial), in place / replay %.3f\n",
                  tag.c_str(), replay_control_s_, in_place_control_s_, kInPlaceEvery,
                  in_place_control_s_ / replay_control_s_);
    }
  }

 private:
  /// One pass over the grid. `time_cells` (1-thread runners only)
  /// records every cell's wall time.
  std::vector<CellResult> run(study::SweepRunner& runner, TraceState* trace, bool time_cells) {
    TraceState* state = trace != nullptr ? trace
                        : options_.inject_delay_ns > 0.0 ? &delay_state_
                                                         : nullptr;
    return runner.run<CellResult>(grid_.cells(), [&](std::size_t index, sim::Rng rng) {
      const std::int64_t c0 = time_cells ? now_ns() : 0;
      CellResult out = run_cell(index, std::move(rng), state);
      if (time_cells) {
        const double cell_s = static_cast<double>(now_ns() - c0) * 1e-9;
        cell_ms_.push_back(cell_s * 1e3);
        untraced_cell_s_[grid_.coord(index, 0)] += cell_s;
      }
      return out;
    });
  }

  /// One participant's 30 trials in one condition — the cell body of
  /// exp_scroll_comparison, with the technique optionally decorated.
  CellResult run_cell(std::size_t index, sim::Rng rng, TraceState* state) const {
    const std::size_t technique = grid_.coord(index, 0);
    const bool tracing = state != nullptr && state->tracing;
    const std::int64_t t0 = tracing ? now_ns() : 0;
    CellTechnique scroll = make_technique(technique, rng.fork(1), state);
    const auto profile = human::UserProfile::average()
                             .with_expertise(participant_expertise(grid_.coord(index, 3)))
                             .with_glove(kGloves[grid_.coord(index, 2)]);
    sim::Rng task_rng = rng.fork(2);
    const auto tasks = study::random_tasks(task_rng, kMenus[grid_.coord(index, 1)], kTrials);
    const std::int64_t t1 = tracing ? now_ns() : 0;
    const auto records = study::run_trials(*scroll.scroll, tasks, profile, rng.fork(3));
    if (tracing) {
      TechniqueTrace& tt = state->techniques[technique];
      tt.trial_setup.add(t0, t1, bias_ns_);
      ++tt.trial_setup.calls;
      const std::int64_t t2 = now_ns();
      tt.run_trials_s += static_cast<double>(t2 - t1) * 1e-9;
      if (scroll.replay) {
        scroll.replay(tt);
        state->calls.clear();
        state->replay_s += static_cast<double>(now_ns() - t2) * 1e-9;
      }
    }
    CellResult out;
    std::copy(records.begin(), records.end(), out.records.begin());
    return out;
  }

  PassResult finish_pass(const std::vector<CellResult>& results, double wall_s,
                         std::size_t threads) {
    PassResult r;
    r.wall_s = wall_s;
    r.attempted = results.size() * kTrials;
    std::size_t diverged = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const bool same = results[i] == reference_[i];
      if (!same) ++diverged;
      for (const study::TrialRecord& rec : results[i].records) {
        if (!same || !trial_ok(rec, kMenus[grid_.coord(i, 1)])) ++r.failed;
      }
    }
    if (diverged != 0) {
      fail("q1_sweep: %zu of %zu cells differ from the reference at %zu threads", diverged,
           results.size(), threads);
    }
    r.ops = r.attempted - r.failed;
    return r;
  }

  /// A trial's record must describe a real selection in its menu.
  static bool trial_ok(const study::TrialRecord& rec, std::size_t menu) {
    const auto& o = rec.outcome;
    return rec.level_size == menu && rec.scroll_distance >= 1 && rec.scroll_distance < menu &&
           std::isfinite(o.time_s) && o.time_s > 0.0 && o.time_s < 2.0 * kTimeoutS &&
           o.corrective_movements >= 0 && o.overshoots >= 0 && o.wrong_selections >= 0 &&
           std::isfinite(o.id_bits) && o.id_bits > 0.0;
  }

  Options options_;
  study::SweepGrid grid_;
  double bias_ns_;
  TraceState delay_state_;
  std::optional<study::SweepRunner> sequential_;
  std::optional<study::SweepRunner> parallel_;
  std::vector<CellResult> reference_;
  std::vector<double> cell_ms_;
  std::array<double, kTechniqueCount> untraced_cell_s_{};
  std::size_t untraced_passes_1t_ = 0;
  double in_place_control_s_ = 0.0;  // DistScroll control, timed in place
  double replay_control_s_ = 0.0;    // the same calls, timed by replay
};

}  // namespace

std::unique_ptr<Workload> make_q1_sweep(const Options& options) {
  return std::make_unique<Q1Sweep>(options);
}

}  // namespace perfbench
