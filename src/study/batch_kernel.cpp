#include "study/batch_kernel.h"

#include <algorithm>

#include "util/hot_path.h"
#include "util/rounding.h"

namespace distscroll::study {

void BatchSessionKernel::begin_group(std::size_t lanes) {
  // Shrink-free resize: lane slots (and their member vectors/optionals)
  // keep capacity across groups, so a warmed kernel re-groups without
  // touching the heap. The mapper cache deliberately survives: tables
  // are pure functions of (curve, entries, config).
  lanes_.resize(lanes);
}

const core::IslandMapper* BatchSessionKernel::cached_mapper(
    const baselines::DistanceScroll::Config& config, std::size_t entries) {
  const core::SensorCurve::Params& curve = config.curve.params();
  const core::IslandMapper::Config& islands = config.islands;
  for (const MapperEntry& entry : mappers_) {
    if (entry.entries == entries && entry.curve.a == curve.a && entry.curve.k == curve.k &&
        entry.curve.c == curve.c && entry.curve.vref == curve.vref &&
        entry.islands.near.value == islands.near.value &&
        entry.islands.far.value == islands.far.value &&
        entry.islands.coverage == islands.coverage &&
        entry.islands.hysteresis_counts == islands.hysteresis_counts) {
      return entry.mapper.get();
    }
  }
  MapperEntry entry{curve, islands, entries,
                    std::make_unique<core::IslandMapper>(config.curve, entries, islands)};
  mappers_.push_back(std::move(entry));
  return mappers_.back().mapper.get();
}

void BatchSessionKernel::init_lane(std::size_t lane,
                                   const baselines::DistanceScroll::Config& config,
                                   sim::Rng technique_rng) {
  Lane& L = lanes_[lane];
  L.config = config;
  L.surface = sensors::SurfaceProfile{};  // the ranger's default-constructed surface
  L.sensor_rng = technique_rng.fork(1);   // the ranger's stream, as in the scalar ctor
  L.adc_rng = technique_rng;              // ADC noise draws from the technique RNG itself
  L.model.emplace(config.sensor, sim::Rng(0));  // ideal_output only; its RNG is never drawn
  reset_lane(lane, 1, 0);                 // the scalar ctor ends in reset(1, 0)
}

void BatchSessionKernel::reset_lane(std::size_t lane, std::size_t level_size,
                                    std::size_t start_index) {
  Lane& L = lanes_[lane];
  // ranger_.reset(): trial clocks restart at zero, noise stream persists.
  L.ever_measured = false;
  L.next_measurement_s = 0.0;
  L.held_volts = 0.0;
  L.level_size = std::max<std::size_t>(1, level_size);
  L.mapper = cached_mapper(L.config, L.level_size);
  // Fresh construction == reinitialize(): selection, smoothing state and
  // stream statistics all start over (the scalar reset() reinitialises
  // unconditionally, so a level-size change rebinding the table here is
  // indistinguishable from the in-place rebuild).
  L.controller.emplace(*L.mapper, L.config.scroll);
  L.cursor = std::min(start_index, L.level_size - 1);
  L.next_tick_s = 0.0;
}

baselines::ControlSpec BatchSessionKernel::spec(std::size_t lane) const {
  const Lane& L = lanes_[lane];
  baselines::ControlSpec spec;
  spec.style = baselines::ControlStyle::AbsolutePosition;
  spec.u_min = 2.0;
  spec.u_max = 40.0;
  spec.u_neutral = (L.config.islands.near.value + L.config.islands.far.value) / 2.0;
  spec.unit = "cm";
  return spec;
}

std::size_t BatchSessionKernel::island_of_menu_index(const Lane& lane,
                                                     std::size_t menu_index) const {
  if (lane.config.scroll.direction == core::ScrollDirection::TowardUserScrollsDown) {
    return lane.level_size - 1 - menu_index;
  }
  return menu_index;
}

std::optional<double> BatchSessionKernel::target_u(std::size_t lane, std::size_t target) const {
  const Lane& L = lanes_[lane];
  if (target >= L.level_size) return std::nullopt;
  return L.mapper->centre_distance(island_of_menu_index(L, target)).value;
}

double BatchSessionKernel::target_width_u(std::size_t lane, std::size_t target) const {
  const Lane& L = lanes_[lane];
  if (target >= L.level_size) return 0.1;
  const auto& island = L.mapper->islands()[island_of_menu_index(L, target)];
  const double d_low = L.config.curve.distance_at(util::AdcCounts{island.high}).value;
  const double d_high = L.config.curve.distance_at(util::AdcCounts{island.low}).value;
  return std::max(0.05, d_high - d_low);
}

void BatchSessionKernel::run_block(std::size_t lane, std::span<const double> now_s,
                                   std::span<const double> u,
                                   std::span<std::uint32_t> cursors_out) {
  Lane& L = lanes_[lane];
  const std::size_t n = now_s.size();

  // --- schedule stage: firmware ticks and S&H remeasures are pure
  // functions of the time grid, so the block's entire noise consumption
  // is known before any numeric work — that is what lets one batched
  // fill per stream replace the per-sample draws.
  tick_at_.clear();
  remeasured_.clear();
  double next_tick = L.next_tick_s;
  double next_meas = L.next_measurement_s;
  bool ever = L.ever_measured;
  const double tick_period = L.config.firmware_tick.value;
  const double meas_period = L.config.sensor.measurement_period.value;
  std::size_t remeasures = 0;
  for (std::size_t k = 0; k < n; ++k) {
    if (now_s[k] < next_tick) continue;
    next_tick = now_s[k] + tick_period;
    tick_at_.push_back(static_cast<std::uint32_t>(k));
    std::uint8_t remeasure = 0;
    if (!ever || now_s[k] >= next_meas) {
      remeasure = 1;
      ever = true;
      // Align the next measurement to the sensor's own internal grid.
      if (now_s[k] >= next_meas + meas_period) {
        next_meas = now_s[k] + meas_period;  // resync after a long gap
      } else {
        next_meas += meas_period;
      }
      ++remeasures;
    }
    remeasured_.push_back(remeasure);
  }
  L.next_tick_s = next_tick;
  L.next_measurement_s = next_meas;
  L.ever_measured = ever;

  const std::size_t ticks = tick_at_.size();
  sensor_noise_.resize(remeasures);
  adc_noise_.resize(ticks);
  sampled_.resize(ticks);

  DS_HOT_BEGIN
  // --- noise stage: one fill per stream. fill_gaussian consumes the
  // engine identically to the per-sample gaussian() calls it replaces
  // (spare cache included), so per-stream draw order is untouched. The
  // specular-glitch path interleaves a bernoulli on the sensor stream,
  // making its consumption data-dependent — that rare configuration
  // falls back to scalar in-loop draws below.
  const double glitch_p = L.surface.specular_glitch_probability;
  if (glitch_p <= 0.0) {
    L.sensor_rng.fill_gaussian({sensor_noise_.data(), remeasures}, 0.0,
                               L.config.sensor.output_noise_volts);
  }
  L.adc_rng.fill_gaussian({adc_noise_.data(), ticks}, 0.0, L.config.adc_noise_lsb);

  // --- sensor + ADC stage: expression shapes mirror
  // Gp2d120Model::remeasure and DistanceScroll::on_control exactly.
  const double refl_shift = (L.surface.reflectivity - 1.0) * L.config.sensor.reflectivity_sensitivity;
  const double vref = L.config.curve.params().vref;
  double held = L.held_volts;
  std::size_t m = 0;
  for (std::size_t j = 0; j < ticks; ++j) {
    if (remeasured_[j]) {
      const bool glitched = glitch_p > 0.0 && L.sensor_rng.bernoulli(glitch_p);
      if (glitched) {
        held = L.config.sensor.min_output_volts;
      } else {
        double v = L.model->ideal_output(util::Centimeters{u[tick_at_[j]]}).value *
                   (1.0 + refl_shift);
        v += glitch_p > 0.0 ? L.sensor_rng.gaussian(0.0, L.config.sensor.output_noise_volts)
                            : sensor_noise_[m++];
        held = std::clamp(v, 0.0, 3.3);
      }
    }
    double counts = held / vref * 1023.0;
    counts += adc_noise_[j];
    counts = std::clamp(counts, 0.0, 1023.0);
    sampled_[j] = static_cast<std::uint16_t>(util::round_nonneg(counts));
  }
  L.held_volts = held;

  // --- LUT + FSM stage: sequential by nature (each sample's hysteresis
  // depends on the previous selection), then the cursor is fanned back
  // out over the block's sample axis for the planner's observer.
  std::size_t cursor = L.cursor;
  const std::size_t last = L.level_size - 1;
  std::size_t j = 0;
  for (std::size_t k = 0; k < n; ++k) {
    if (j < ticks && tick_at_[j] == k) {
      const auto update = L.controller->on_sample(util::AdcCounts{sampled_[j]});
      if (update.menu_index) cursor = std::min(*update.menu_index, last);
      ++j;
    }
    cursors_out[k] = static_cast<std::uint32_t>(cursor);
  }
  L.cursor = cursor;
  DS_HOT_END
}

}  // namespace distscroll::study
