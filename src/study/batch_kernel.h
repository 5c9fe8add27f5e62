// Batched DistScroll session kernel (ROADMAP item 2).
//
// Advances N device sessions — lanes — through the full sensing chain
// in lockstep: distance samples through the Gp2d120 transfer curve with
// gaussian noise, ADC quantisation with gaussian LSB noise, the
// 1024-entry island LUT, and the scroll-controller FSM. State is laid
// out SoA along the sample axis: run_block() takes a whole control
// phase's (time, distance) arrays, derives the firmware-tick and
// sample-and-hold schedules up front (both are pure functions of the
// time grid), pre-draws every noise value the block will consume with
// ONE batched RNG fill per stream, and then sweeps the numeric stages
// array-at-a-time instead of re-entering the scalar virtual-call chain
// per control step.
//
// The scalar path (baselines::DistanceScroll driven sample-by-sample by
// human::MotionPlanner) stays the reference implementation. The kernel
// is pinned BIT-IDENTICAL to it over the full sweep-config suite by
// tests/batch_test.cpp, the same way pooled == fresh sessions were
// pinned in the device-pool PR. Two contracts make that possible:
//
//  * every FP expression mirrors the scalar code shape exactly (same
//    operations, same order; the build compiles ISO C++ with FP
//    contraction off, so identical op sequences give identical bits);
//  * all pre-drawn noise goes through sim::Rng::fill_gaussian, whose
//    engine consumption is defined to equal N sequential gaussian()
//    calls — including the cached Box–Muller spare — so hoisting the
//    draws out of the per-sample loop cannot shift any stream (see the
//    draw-order contract note in random.h and DESIGN.md §11).
//
// Lanes are independent sessions: each keeps its own technique RNG,
// sensor RNG, sample-and-hold state and controller FSM, exactly as N
// separate DistanceScroll objects would. Island tables are pure
// functions of (curve, entries, island config), so lanes share them
// through a cache instead of rebuilding per lane.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "baselines/distance_scroll.h"
#include "core/island_mapper.h"
#include "core/scroll_controller.h"
#include "input/debouncer.h"
#include "sensors/gp2d120.h"
#include "sim/random.h"

namespace distscroll::study {

class BatchSessionKernel {
 public:
  /// DistanceScroll::glove_sensitivity() — the batched trial driver
  /// needs it without a technique object; pinned equal by batch_test.
  static constexpr double kGloveSensitivity = 0.15;

  /// Drop all lanes and start a fresh group of `lanes` sessions. The
  /// island-table cache persists (tables are pure functions of their
  /// key); lane slots and scratch keep their capacity, so a warmed
  /// kernel re-groups without allocating.
  void begin_group(std::size_t lanes);

  [[nodiscard]] std::size_t lanes() const { return lanes_.size(); }

  /// Lane <- a fresh session, mirroring DistanceScroll(config, rng):
  /// the sensor stream forks off tag 1, the ADC stream is the technique
  /// RNG itself, and the session starts reset to a 1-entry level.
  void init_lane(std::size_t lane, const baselines::DistanceScroll::Config& config,
                 sim::Rng technique_rng);

  /// Mirror of DistanceScroll::reset(level_size, start_index): clears
  /// the sample-and-hold and firmware-tick clocks (NOT the RNG streams),
  /// rebinds the island table for the level, reinitialises the
  /// controller FSM, places the cursor.
  void reset_lane(std::size_t lane, std::size_t level_size, std::size_t start_index);

  // --- scalar-interface mirrors the trial driver needs -------------------
  [[nodiscard]] std::size_t cursor(std::size_t lane) const { return lanes_[lane].cursor; }
  [[nodiscard]] std::size_t level_size(std::size_t lane) const { return lanes_[lane].level_size; }
  [[nodiscard]] baselines::ControlSpec spec(std::size_t lane) const;
  [[nodiscard]] std::optional<double> target_u(std::size_t lane, std::size_t target) const;
  [[nodiscard]] double target_width_u(std::size_t lane, std::size_t target) const;
  /// DistanceScroll::next_control_s() and its firmware tick period: the
  /// trial driver stages only the samples run_block() would tick on.
  [[nodiscard]] double next_tick_s(std::size_t lane) const { return lanes_[lane].next_tick_s; }
  [[nodiscard]] double tick_period_s(std::size_t lane) const {
    return lanes_[lane].config.firmware_tick.value;
  }

  /// Advance one lane over a block of control samples: now_s/u are the
  /// planner feed (the dense one entry per dt step, or only its tick
  /// samples: samples before the next tick are ignored either way),
  /// cursors_out[k] receives the lane's cursor AFTER sample k (what the
  /// planner's overshoot observer reads). All three spans must have
  /// equal length.
  /// Allocation-free once scratch is warm (DS_ASSERT_NO_ALLOC-pinned).
  void run_block(std::size_t lane, std::span<const double> now_s, std::span<const double> u,
                 std::span<std::uint32_t> cursors_out);

 private:
  struct Lane {
    baselines::DistanceScroll::Config config;
    sensors::SurfaceProfile surface;  // always the default, as in the scalar ctor
    sim::Rng adc_rng{0};              // the technique's own stream (ADC noise)
    sim::Rng sensor_rng{0};           // technique_rng.fork(1), as the ranger gets
    std::optional<sensors::Gp2d120Model> model;  // transfer curve only; draws no noise
    const core::IslandMapper* mapper = nullptr;
    std::optional<core::ScrollController> controller;
    // Sample-and-hold + firmware-tick state (the ranger's and
    // DistanceScroll's per-session clocks).
    double held_volts = 0.0;
    double next_measurement_s = 0.0;
    bool ever_measured = false;
    double next_tick_s = 0.0;
    std::size_t level_size = 1;
    std::size_t cursor = 0;
  };

  [[nodiscard]] std::size_t island_of_menu_index(const Lane& lane, std::size_t menu_index) const;
  const core::IslandMapper* cached_mapper(const baselines::DistanceScroll::Config& config,
                                          std::size_t entries);

  std::vector<Lane> lanes_;

  // Island-table cache, keyed on everything rebuild() reads. unique_ptr
  // slots: controllers hold the mapper by address, so entries must not
  // move when the cache grows.
  struct MapperEntry {
    core::SensorCurve::Params curve;
    core::IslandMapper::Config islands;
    std::size_t entries;
    std::unique_ptr<core::IslandMapper> mapper;
  };
  std::vector<MapperEntry> mappers_;

  // Block scratch, SoA along the sample axis; resized (allocation
  // allowed) before the DS_HOT region, reused across blocks.
  std::vector<std::uint32_t> tick_at_;     // sample index of each firmware tick
  std::vector<std::uint8_t> remeasured_;   // per tick: S&H remeasure fired
  std::vector<double> sensor_noise_;       // per remeasure, pre-drawn
  std::vector<double> adc_noise_;          // per tick, pre-drawn
  std::vector<std::uint16_t> sampled_;     // per tick: quantised ADC counts
};

/// SoA debounce FSM: N firmware button channels advanced in lockstep,
/// one tick column per call. Bit-identical to N scalar input::Debouncer
/// instances fed the same per-channel sample streams (pinned by
/// batch_test) — the batched counterpart for device-fleet inputs, where
/// every session carries a select button. (The study trial path models
/// the select press as time cost, so the kernel above has no button
/// stream to feed this; the device fleet does.)
class BatchDebouncer {
 public:
  explicit BatchDebouncer(std::size_t channels, input::Debouncer::Config config = {})
      : config_(config), stable_low_(channels, 0), counter_(channels, 0) {}

  [[nodiscard]] std::size_t channels() const { return stable_low_.size(); }
  [[nodiscard]] bool pressed(std::size_t channel) const { return stable_low_[channel] != 0; }

  /// Feed one raw sample per channel (one firmware tick across the
  /// fleet). edges_out[c]: +1 debounced press edge, -1 release edge,
  /// 0 no edge — the batched equivalent of the scalar callbacks.
  void tick(std::span<const hw::PinLevel> raw, std::span<std::int8_t> edges_out) {
    for (std::size_t c = 0; c < stable_low_.size(); ++c) {
      const bool low = raw[c] == hw::PinLevel::Low;
      std::int8_t edge = 0;
      if (low == (stable_low_[c] != 0)) {
        counter_[c] = 0;
      } else if (++counter_[c] >= config_.stable_ticks) {
        stable_low_[c] = low ? 1 : 0;
        counter_[c] = 0;
        edge = low ? 1 : -1;
      }
      edges_out[c] = edge;
    }
  }

 private:
  input::Debouncer::Config config_;
  std::vector<std::uint8_t> stable_low_;  // 1 = debounced Low (pressed)
  std::vector<int> counter_;
};

}  // namespace distscroll::study
