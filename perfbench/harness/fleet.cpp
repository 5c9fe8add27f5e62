// fleet_distscroll: study::run_fleet over the default PopulationSpec —
// menu 40, 4 trials per participant, the batched body, chunk 256.
//
// The traced pass re-drives study::FleetEngine with a chunk body owned
// by this file (the batched body of run_fleet, call for call) and an
// aggregate wrapper that times merge(), then byte-compares the merged
// aggregates with the untraced run_fleet output, so the copy cannot
// drift from the library silently.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "baselines/distance_scroll.h"
#include "harness.h"
#include "human/population.h"
#include "study/batch_trials.h"
#include "study/fleet_engine.h"
#include "study/fleet_study.h"
#include "study/task.h"

namespace perfbench {
namespace {

using namespace distscroll;

// 4 chunks, one per thread at T = 4. A pass lasts a fraction of a second,
// so a run holds many passes and the speed reference brackets each one
// closely.
constexpr std::uint64_t kParticipants = 1024;
constexpr std::uint32_t kTrialsPerParticipant = 4;
constexpr std::uint32_t kMenu = 40;
constexpr std::uint64_t kChunk = 256;
/// A trial stops near the planner's timeout (a commit may run past it).
const double kTimeoutS = human::MotionPlanner::Config{}.timeout_s;

/// FleetEngine aggregate: FleetAggregates plus a timer on merge(), the
/// engine's one serial step.
struct TimedAggregates {
  study::FleetAggregates aggregates;
  Meter* merge_meter = nullptr;
  double bias_ns = 0.0;

  void clear() { aggregates.clear(); }
  void merge(const TimedAggregates& other) {
    const std::int64_t t0 = now_ns();
    aggregates.merge(other.aggregates);
    if (merge_meter != nullptr) {
      merge_meter->add(t0, now_ns(), bias_ns);
      ++merge_meter->calls;
    }
  }
};

class Fleet final : public Workload {
 public:
  explicit Fleet(const Options& options)
      : options_(options), bias_ns_(options.trace ? clock_read_ns() : 0.0) {}

  [[nodiscard]] const char* op_name() const override { return "trials"; }
  [[nodiscard]] std::string input_summary() const override {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%" PRIu64 " participants x %u trials = %" PRIu64
                  " trials per pass (menu %u, chunk %" PRIu64 ", batched)",
                  kParticipants, kTrialsPerParticipant, kParticipants * kTrialsPerParticipant,
                  kMenu, kChunk);
    return buf;
  }

  void setup(std::uint64_t seed) override { seed_ = seed; }

  void warm_up() override {
    const auto reference = study::run_fleet(config(options_.threads));
    reference_ = reference.aggregates.to_bytes();
    check_aggregates(reference, options_.threads);
  }

  PassResult pass(std::size_t threads) override {
    const double t0 = now_s();
    const auto result = study::run_fleet(config(threads));
    PassResult r;
    r.wall_s = now_s() - t0;
    r.attempted = kParticipants * kTrialsPerParticipant;
    const bool ok = check_aggregates(result, threads);
    if (result.aggregates.to_bytes() != reference_) {
      fail("fleet_distscroll: aggregates at %zu threads differ from the reference", threads);
    } else if (ok) {
      r.ops = result.aggregates.trials();
      return r;
    }
    r.failed = r.attempted;
    return r;
  }

  PassResult traced_pass(LayerTrace& trace) override {
    Meter sample, setup, batch_run, fold, merge;
    std::uint64_t bad_trials = 0;

    study::FleetConfig engine_config;
    engine_config.participants = kParticipants;
    engine_config.threads = 1;
    engine_config.chunk = kChunk;
    engine_config.base_seed = seed_;
    study::FleetEngine<TimedAggregates> engine(engine_config);
    const human::PopulationSpec spec{};
    std::vector<human::SampledParticipant> lane_participants;

    // run_fleet's batched chunk body, timed call by call.
    const auto chunk_body = [&](std::uint64_t first, std::uint64_t count, TimedAggregates& out,
                                const study::FleetEngine<TimedAggregates>& eng) {
      auto& batch = study::BatchTrialRunner::local();
      lane_participants.assign(static_cast<std::size_t>(count), human::SampledParticipant{});
      batch.begin_group(static_cast<std::size_t>(count));
      for (std::uint64_t k = 0; k < count; ++k) {
        const auto lane = static_cast<std::size_t>(k);
        const sim::Rng rng = eng.participant_rng(first + k);
        const std::int64_t t0 = now_ns();
        lane_participants[lane] = human::sample_participant(spec, rng.fork(0));
        const std::int64_t t1 = now_ns();
        const auto& participant = lane_participants[lane];
        sim::Rng task_rng = rng.fork(2);
        const auto tasks = study::random_tasks(task_rng, kMenu, kTrialsPerParticipant);
        baselines::DistanceScroll::Config technique{};
        technique.islands.far = util::Centimeters{participant.reach_far_cm};
        batch.init_cell(lane, technique, rng.fork(1), tasks, participant.profile, rng.fork(3));
        const std::int64_t t2 = now_ns();
        sample.add(t0, t1, bias_ns_);
        setup.add(t1, t2, bias_ns_);
      }
      sample.calls += count;
      setup.calls += count;
      const std::int64_t t3 = now_ns();
      batch.run();
      const std::int64_t t4 = now_ns();
      batch_run.add(t3, t4, bias_ns_);
      ++batch_run.calls;
      for (std::uint64_t k = 0; k < count; ++k) {
        const auto lane = static_cast<std::size_t>(k);
        out.aggregates.fold_participant(lane_participants[lane]);
        for (const study::TrialRecord& record : batch.records(lane)) {
          out.aggregates.fold_trial(record);
          if (!trial_ok(record)) ++bad_trials;
        }
      }
      fold.add(t4, now_ns(), bias_ns_, count);
      fold.calls += count;
    };

    TimedAggregates global;
    global.merge_meter = &merge;
    global.bias_ns = bias_ns_;
    std::uint64_t cursor = 0;
    const double t0 = now_s();
    engine.run(global, cursor, study::kFleetRunAll, chunk_body);
    PassResult r;
    r.wall_s = now_s() - t0;
    r.attempted = kParticipants * kTrialsPerParticipant;
    if (cursor != kParticipants || global.aggregates.to_bytes() != reference_) {
      fail("fleet_distscroll: re-composed FleetEngine run differs from run_fleet");
      r.failed = r.attempted;
    } else {
      r.failed = bad_trials;
      if (bad_trials != 0) fail("fleet_distscroll: %" PRIu64 " trial records fail checks", bad_trials);
      r.ops = r.attempted - r.failed;
    }

    trace.add("human.sample_participant.busy_s", sample.estimate());
    trace.add("human.sample_participant.calls", static_cast<double>(sample.calls));
    trace.add("study.trial_setup.busy_s", setup.estimate());
    trace.add("study.trial_setup.calls", static_cast<double>(setup.calls));
    trace.add("study.batch_run.busy_s", batch_run.estimate());
    trace.add("study.batch_run.calls", static_cast<double>(batch_run.calls));
    trace.add("study.fold.busy_s", fold.estimate());
    trace.add("study.fold.calls", static_cast<double>(fold.calls));
    trace.add("study.merge.busy_s", merge.estimate());
    trace.add("study.merge.calls", static_cast<double>(merge.calls));
    return r;
  }

  void finish_trace(LayerTrace& trace) override { trace.set("trace.sample_rate", 1.0); }

  [[nodiscard]] std::uint64_t digest() const override {
    Digest d;
    d.bytes(reference_.data(), reference_.size());
    return d.hash();
  }

 private:
  [[nodiscard]] study::FleetStudyConfig config(std::size_t threads) const {
    study::FleetStudyConfig c;
    c.participants = kParticipants;
    c.trials_per_participant = kTrialsPerParticipant;
    c.menu_size = kMenu;
    c.base_seed = seed_;
    c.threads = threads;
    c.chunk = kChunk;
    c.batched = true;
    return c;
  }

  /// The aggregates must account for every participant and trial.
  bool check_aggregates(const study::FleetRunResult& result, std::size_t threads) {
    const auto& a = result.aggregates;
    std::uint64_t gloves = 0, reaches = 0;
    for (const std::uint64_t c : a.glove_counts()) gloves += c;
    for (const std::uint64_t c : a.reach_counts()) reaches += c;
    const bool ok = result.status == util::CheckpointStatus::Ok && result.complete &&
                    a.participants() == kParticipants &&
                    a.trials() == kParticipants * kTrialsPerParticipant &&
                    a.successes() <= a.trials() && a.successes() > 0 && gloves == kParticipants &&
                    reaches == kParticipants && std::isfinite(a.time_s().mean());
    if (!ok) {
      fail("fleet_distscroll: aggregates at %zu threads are inconsistent (participants %" PRIu64
           ", trials %" PRIu64 ", successes %" PRIu64 ")",
           threads, a.participants(), a.trials(), a.successes());
    }
    return ok;
  }

  static bool trial_ok(const study::TrialRecord& rec) {
    const auto& o = rec.outcome;
    return rec.level_size == kMenu && rec.scroll_distance >= 1 && rec.scroll_distance < kMenu &&
           std::isfinite(o.time_s) && o.time_s > 0.0 && o.time_s < 2.0 * kTimeoutS &&
           o.corrective_movements >= 0 && o.overshoots >= 0 && o.wrong_selections >= 0;
  }

  Options options_;
  double bias_ns_;
  std::uint64_t seed_ = 0;
  std::vector<std::uint8_t> reference_;
};

}  // namespace

std::unique_ptr<Workload> make_fleet(const Options& options) {
  return std::make_unique<Fleet>(options);
}

}  // namespace perfbench
