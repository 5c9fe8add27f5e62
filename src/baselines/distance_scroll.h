// DistScroll as a ScrollTechnique: the full sensing path (GP2D120 model,
// ADC quantisation, island mapping, scroll controller) behind the
// generic technique interface so it competes on equal terms with the
// baselines in the Q1 study.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "baselines/scroll_technique.h"
#include "core/island_mapper.h"
#include "core/scroll_controller.h"
#include "core/sensor_curve.h"
#include "sensors/gp2d120.h"
#include "sim/random.h"

namespace distscroll::baselines {

class DistanceScroll final : public ScrollTechnique {
 public:
  struct Config {
    core::SensorCurve curve{};
    core::IslandMapper::Config islands{};
    core::ScrollController::Config scroll{};
    /// Test seams: the cross-model test turns the sensor and ADC noise
    /// off to compare the technique with the device tick for tick.
    sensors::Gp2d120Model::Config sensor{};
    double adc_noise_lsb = 0.5;
  };

  DistanceScroll(Config config, sim::Rng rng);

  [[nodiscard]] std::string name() const override { return "DistScroll"; }
  [[nodiscard]] ControlSpec spec() const override;
  void reset(std::size_t level_size, std::size_t start_index) override;
  [[nodiscard]] std::size_t cursor() const override { return cursor_; }
  [[nodiscard]] std::size_t level_size() const override { return level_size_; }
  /// A 1-sample block.
  void on_control(util::Seconds now, double u) override;
  /// The firmware's next tick: earlier samples are never read.
  [[nodiscard]] double next_control_s() const override { return next_tick_s_; }
  /// One firmware tick: a counted sample at t sets the next tick to
  /// exactly t + core::kFirmwareTick.
  [[nodiscard]] double control_period_s() const override { return core::kFirmwareTick.value; }
  /// Two passes over the block: sensor + ADC for every tick, then the
  /// controller FSM. The sensor and ADC draw from separate streams and
  /// the FSM draws none, so the split keeps every draw in order. The
  /// hand is read only on the ticks where the GP2D120 re-measures; the
  /// others see its held output. Allocation-free once the scratch has
  /// held a block this long.
  void on_control_block(std::span<const double> now_s, HandSignal hand,
                        std::span<std::size_t> cursors_out) override;
  [[nodiscard]] std::optional<double> target_u(std::size_t target) const override;
  [[nodiscard]] double target_width_u(std::size_t target) const override;
  /// Gross arm movement + one thumb button: nearly glove-insensitive.
  [[nodiscard]] double glove_sensitivity() const override { return 0.15; }

  [[nodiscard]] const core::IslandMapper& mapper() const { return mapper_; }

 private:
  Config config_;
  sim::Rng rng_;
  // Direct members, rebuilt in place by reset(): run_trial() resets the
  // technique before EVERY trial, and three heap reconstructions per
  // trial dominated the per-trial setup cost. The island table is only
  // recomputed when the level size actually changes.
  sensors::Gp2d120Model ranger_;
  core::IslandMapper mapper_;
  core::ScrollController controller_;
  std::size_t level_size_ = 1;
  std::size_t cursor_ = 0;
  double next_tick_s_ = 0.0;
  // Block scratch: each sample's ADC counts, kNoTick off the firmware
  // tick. Grows to the longest block and is reused.
  static constexpr std::uint16_t kNoTick = 0xFFFF;
  std::vector<std::uint16_t> block_counts_;
};

}  // namespace distscroll::baselines
