#include "baselines/distance_scroll.h"

#include <algorithm>
#include <limits>

#include "obs/stage_timer.h"
#include "util/hot_path.h"
#include "util/rounding.h"

namespace distscroll::baselines {

namespace {
// The distance handed to a sensor that holds its output: never read.
constexpr double kUnread = std::numeric_limits<double>::quiet_NaN();
}  // namespace

DistanceScroll::DistanceScroll(Config config, sim::Rng rng)
    : config_(config),
      rng_(rng),
      ranger_(config_.sensor, rng_.fork(1)),
      mapper_(config_.curve, 1, config_.islands),
      controller_(mapper_, config_.scroll) {
  reset(1, 0);
}

ControlSpec DistanceScroll::spec() const {
  ControlSpec spec;
  spec.style = ControlStyle::AbsolutePosition;
  spec.u_min = 2.0;
  spec.u_max = 40.0;
  spec.u_neutral = (config_.islands.near.value + config_.islands.far.value) / 2.0;
  spec.unit = "cm";
  return spec;
}

void DistanceScroll::reset(std::size_t level_size, std::size_t start_index) {
  ranger_.reset();  // trial clocks restart at zero
  level_size_ = std::max<std::size_t>(1, level_size);
  // The island table is a pure function of (curve, level size, config):
  // reuse it across same-size trials instead of recomputing per trial.
  if (mapper_.entries() != level_size_) {
    mapper_.rebuild(config_.curve, level_size_, config_.islands);
  }
  controller_.reinitialize(config_.scroll);
  cursor_ = std::min(start_index, level_size_ - 1);
  next_tick_s_ = 0.0;
}

void DistanceScroll::on_control(util::Seconds now, double u) {
  // The firmware samples at its own tick, regardless of how densely the
  // planner integrates the hand position.
  if (now.value < next_tick_s_) return;
  std::size_t cursor = cursor_;
  const auto hand = [u](std::size_t) { return u; };
  on_control_block({&now.value, 1}, hand, {&cursor, 1});
}

void DistanceScroll::on_control_block(std::span<const double> now_s, HandSignal hand,
                                      std::span<std::size_t> cursors_out) {
  const std::size_t n = now_s.size();
  if (block_counts_.size() < n) block_counts_.resize(n);
  DS_HOT_BEGIN
  {
    DS_STAGE(AdcSample);
    const double tick = core::kFirmwareTick.value;
    double next_tick = next_tick_s_;
    for (std::size_t k = 0; k < n; ++k) {
      if (now_s[k] < next_tick) {
        block_counts_[k] = kNoTick;
        continue;
      }
      next_tick = now_s[k] + tick;
      // Between remeasures the sensor holds its output and ignores the
      // distance, so only a remeasure asks for the hand sample.
      const util::Seconds now{now_s[k]};
      const double u = ranger_.reads_at(now) ? hand(k) : kUnread;
      const util::Volts v = ranger_.output(util::Centimeters{u}, now);
      block_counts_[k] =
          util::adc10_counts(v.value, rng_.gaussian(0.0, config_.adc_noise_lsb)).value;
    }
    next_tick_s_ = next_tick;
  }
  {
    DS_STAGE(Controller);
    std::size_t cursor = cursor_;
    for (std::size_t k = 0; k < n; ++k) {
      if (block_counts_[k] != kNoTick) {
        const auto update = controller_.on_sample(util::AdcCounts{block_counts_[k]});
        if (update.menu_index) cursor = std::min(*update.menu_index, level_size_ - 1);
      }
      cursors_out[k] = cursor;
    }
    cursor_ = cursor;
  }
  DS_HOT_END
}

std::optional<double> DistanceScroll::target_u(std::size_t target) const {
  if (target >= level_size_) return std::nullopt;
  return mapper_.centre_distance(controller_.to_menu_index(target)).value;
}

double DistanceScroll::target_width_u(std::size_t target) const {
  if (target >= level_size_) return 0.1;
  const auto& island = mapper_.islands()[controller_.to_menu_index(target)];
  // Convert the island's count bounds back to distances; the width in cm
  // is what the user must hit.
  const double d_low = config_.curve.distance_at(util::AdcCounts{island.high}).value;
  const double d_high = config_.curve.distance_at(util::AdcCounts{island.low}).value;
  return std::max(0.05, d_high - d_low);
}

}  // namespace distscroll::baselines
