// Stage profiler: RAII wall-clock timers feeding MetricsRegistry
// histograms, answering "where does a sweep cell's time actually go?"
// without a sampling profiler.
//
// Design constraints (the session-kernel perf work lives or dies here):
//  * Zero cost when off. Hot paths carry a DS_STAGE(...) macro that
//    compiles to nothing with DISTSCROLL_TRACING=OFF; with tracing
//    compiled in, an uninstalled profile costs one thread_local load
//    and a branch — no clock read.
//  * No behavioural perturbation. Timers read the wall clock only;
//    they never touch sim state or RNG streams, so profiled runs stay
//    bit-identical to unprofiled ones (same contract as the tracer).
//  * Decimation. A profile installed with decimation N admits 1 in N
//    scopes per stage, so the steady-state overhead of clock reads is
//    bounded (timed_sweep installs with N=16 around its sequential
//    pass: ~6% of scopes pay the two clock reads).
//
// Stages can nest (Controller includes any Flush it triggers); the
// histograms are therefore per-stage inclusive times, not a partition.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>

#include "obs/metrics.h"
#include "obs/tracer.h"  // DISTSCROLL_TRACING_ENABLED

namespace distscroll::obs {

/// The instrumented hot-path stages of a device-study cell.
enum class Stage : std::uint8_t {
  AdcSample = 0,  // ADC conversion incl. analog-source evaluation
  Sensor,         // dual-sensor fold resolution
  Controller,     // counts -> island -> menu entry (incl. apply)
  Flush,          // redraw: window building + both display drivers
  TrialSetup,     // device construction or technique reset + wiring
  kCount,
};

/// One histogram per stage, registered on a MetricsRegistry so stage
/// timings flow into BENCH_*.json next to the sweep's other metrics.
/// Install() binds the profile to the current thread; DS_STAGE scopes
/// record only while a profile is installed.
class StageProfile {
 public:
  static constexpr std::size_t kStages = static_cast<std::size_t>(Stage::kCount);

  explicit StageProfile(MetricsRegistry& registry, std::uint32_t decimation = 1)
      : decimation_(decimation == 0 ? 1 : decimation) {
    static constexpr std::array<const char*, kStages> kNames = {
        "stage_adc_sample", "stage_sensor", "stage_controller", "stage_flush",
        "stage_trial_setup"};
    for (std::size_t i = 0; i < kStages; ++i) {
      // 16 log2 buckets from 0.25 us reach ~4 ms: spans a cached LUT hit
      // to a cold full-device construction.
      histograms_[i] = &registry.histogram(kNames[i], {250e-9, 1e6, "us"});
    }
  }

  [[nodiscard]] std::uint32_t decimation() const { return decimation_; }

  /// Admission control: true for 1 in `decimation` calls per stage.
  bool admit(Stage stage) {
    std::uint32_t& tick = ticks_[static_cast<std::size_t>(stage)];
    if (++tick < decimation_) return false;
    tick = 0;
    return true;
  }

  void record(Stage stage, double seconds) {
    histograms_[static_cast<std::size_t>(stage)]->record(seconds);
  }

  [[nodiscard]] const Histogram& histogram(Stage stage) const {
    return *histograms_[static_cast<std::size_t>(stage)];
  }

  /// The profile installed on this thread (nullptr = profiling off).
  [[nodiscard]] static StageProfile* current() { return current_; }

  /// RAII thread-local installation; restores the previous profile so
  /// installs can nest.
  class Install {
   public:
    explicit Install(StageProfile& profile) : previous_(current_) { current_ = &profile; }
    ~Install() { current_ = previous_; }
    Install(const Install&) = delete;
    Install& operator=(const Install&) = delete;

   private:
    StageProfile* previous_;
  };

 private:
  inline static thread_local StageProfile* current_ = nullptr;

  std::uint32_t decimation_;
  std::array<Histogram*, kStages> histograms_{};
  std::array<std::uint32_t, kStages> ticks_{};
};

/// The RAII scope DS_STAGE expands to. Reads the clock only when a
/// profile is installed AND the decimator admits this scope.
class StageTimer {
 public:
  explicit StageTimer(Stage stage) {
    StageProfile* profile = StageProfile::current();
    if (profile != nullptr && profile->admit(stage)) {
      profile_ = profile;
      stage_ = stage;
      start_ = std::chrono::steady_clock::now();
    }
  }

  ~StageTimer() {
    if (profile_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    profile_->record(stage_, std::chrono::duration<double>(elapsed).count());
  }

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  StageProfile* profile_ = nullptr;
  Stage stage_{};
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace distscroll::obs

// Scoped stage timer; names the local after the line number so sibling
// scopes in one function don't collide.
#if DISTSCROLL_TRACING_ENABLED
#define DS_STAGE_CONCAT_IMPL(a, b) a##b
#define DS_STAGE_CONCAT(a, b) DS_STAGE_CONCAT_IMPL(a, b)
#define DS_STAGE(stage)                                      \
  ::distscroll::obs::StageTimer DS_STAGE_CONCAT(ds_stage_scope_, __LINE__)( \
      ::distscroll::obs::Stage::stage)
#else
#define DS_STAGE(stage) ((void)0)
#endif
