// Sharp GP2D120 infrared distance sensor model.
//
// This is the integral part of the DistScroll prototype (paper Section
// 4.2). The GP2D120 triangulates with a PSD and emits an analog voltage.
// Properties the paper relies on, all modelled here:
//
//  * measuring range ~4..30 cm matching the predicted usage range;
//  * NON-MONOTONIC response: values rise as the device approaches, peak
//    near 4 cm, and fall again steeply below 4 cm — the paper both
//    tolerates this (displays are unreadable that close) and notes that
//    advanced users exploit the steep branch for fast scrolling;
//  * NON-LINEAR response above the peak, well described by
//    V(d) = a / (d + k) + c (the idealised curve of Fig. 4/5);
//  * near-independence from target reflectivity, with the documented
//    exception of specular boundaries;
//  * a sampled-and-held output: the sensor re-measures every ~38 ms
//    (datasheet typ. 38.3 ms) and holds the voltage in between, which
//    lower-bounds the end-to-end latency of distance scrolling.
#pragma once

#include "obs/tracer.h"
#include "sensors/surface.h"
#include "sim/random.h"
#include "util/units.h"

#include <algorithm>
#include <cstdint>
#include <functional>

namespace distscroll::sensors {

class Gp2d120Model {
 public:
  struct Config {
    // Transfer curve V(d) = a/(d+k) + c for d >= kPeakCm, fitted to the
    // GP2D120 datasheet example curve; calibration_demo sets a unit's own.
    double curve_a = 10.4;   // volt * cm
    double curve_k = 0.6;    // cm
    /// Tests set it to 0 to read the noiseless curve.
    double output_noise_volts = 0.012;
  };

  static constexpr double kPeakCm = 3.2;           // response maximum; below this it falls again
  static constexpr double kMinOutputVolts = 0.25;  // floor when out of range (> ~35 cm)
  static constexpr double kDeadZoneVolts = 0.45;   // output at touching distance (0 cm)
  static constexpr util::Seconds kMeasurementPeriod{38.3e-3};  // datasheet typical

  Gp2d120Model(Config config, sim::Rng rng, SurfaceProfile surface = {})
      : config_(config), rng_(rng), surface_(surface) {}

  void set_surface(SurfaceProfile surface) { surface_ = surface; }

  /// Structured tracing of the sensor's internal measurement grid (one
  /// SensorMeasure event per remeasure, including specular glitches).
  /// Null detaches; tracing must never change behaviour.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Ideal (noise-free, instantaneous) transfer function; exposed so
  /// calibration and the Fig. 4 bench can compare fit vs truth.
  [[nodiscard]] util::Volts ideal_output(util::Centimeters distance) const {
    const double d = distance.value;
    if (d >= kMaxRangeCm) {
      return util::Volts{kMinOutputVolts};
    }
    const double peak_volts = config_.curve_a / (kPeakCm + config_.curve_k) + kCurveC;
    if (d < kPeakCm) {
      // Rising branch below the response peak: triangulation geometry
      // folds back. Steeper than the far branch (the paper's fast-scroll
      // observation); modelled as linear from the touching-distance
      // output up to the peak.
      if (d <= 0.0) return util::Volts{kDeadZoneVolts};
      const double t = d / kPeakCm;
      return util::Volts{kDeadZoneVolts + t * (peak_volts - kDeadZoneVolts)};
    }
    const double v = config_.curve_a / (d + config_.curve_k) + kCurveC;
    return util::Volts{std::max(kMinOutputVolts, v)};
  }

  /// Whether output() at `now` re-measures, and so reads the true
  /// distance: the first call, and every call on or after the next
  /// point of the sensor's own grid. Between remeasures the output is
  /// the held voltage and the distance passed in is ignored.
  [[nodiscard]] bool reads_at(util::Seconds now) const {
    return !ever_measured_ || now.value >= next_measurement_s_;
  }

  /// The live analog pin: samples the true-distance provider on the
  /// sensor's own 38 ms grid (zero-order hold) and applies noise,
  /// reflectivity shift and specular glitches.
  [[nodiscard]] util::Volts output(util::Centimeters true_distance, util::Seconds now) {
    if (reads_at(now)) {
      [[maybe_unused]] const bool glitch = remeasure(true_distance);
      DS_TRACE_AT(tracer_, now.value, obs::EventKind::SensorMeasure,
                  static_cast<std::uint32_t>(held_volts_ * 1e6), glitch ? 1u : 0u);
      ever_measured_ = true;
      // Align the next measurement to the sensor's own internal grid.
      const double period = kMeasurementPeriod.value;
      if (now.value >= next_measurement_s_ + period) {
        next_measurement_s_ = now.value + period;  // resync after a long gap
      } else {
        next_measurement_s_ += period;
      }
    }
    return util::Volts{held_volts_};
  }

  /// Convenience: wrap this sensor plus a distance provider as an
  /// hw::AnalogSource-compatible callable.
  // ds-lint: allow(no-std-function-hot-path) owning adapter built once; the ADC samples via FunctionRef
  [[nodiscard]] std::function<util::Volts(util::Seconds)> as_analog_source(
      // ds-lint: allow(no-std-function-hot-path) captured into the owning adapter at setup
      std::function<util::Centimeters(util::Seconds)> distance_provider);

  /// Clear the sample-and-hold state (power cycle). Needed when the
  /// driving clock restarts, e.g. between standalone trials.
  void reset() {
    ever_measured_ = false;
    next_measurement_s_ = 0.0;
    held_volts_ = 0.0;
  }

 private:
  /// Returns whether this measurement was a specular glitch.
  bool remeasure(util::Centimeters distance) {
    if (rng_.bernoulli(surface_.specular_glitch_probability)) {
      // Beam deflected by a specular boundary: no valid measurement, the
      // output drops to the out-of-range floor for this cycle.
      held_volts_ = kMinOutputVolts;
      return true;
    }
    // Reflectivity shifts the triangulation spot slightly; the datasheet
    // shows only a few percent difference between white and gray targets.
    const double refl_shift = (surface_.reflectivity - 1.0) * kReflectivitySensitivity;
    double v = ideal_output(distance).value * (1.0 + refl_shift);
    v += rng_.gaussian(0.0, config_.output_noise_volts);
    held_volts_ = std::clamp(v, 0.0, 3.3);
    return false;
  }

  static constexpr double kCurveC = 0.0;       // volt
  static constexpr double kMaxRangeCm = 31.0;  // beyond: no measurement, output floors
  /// How strongly (fractionally) reflectivity shifts the reading.
  /// Datasheet: gray vs white differs by only a few percent.
  static constexpr double kReflectivitySensitivity = 0.03;

  Config config_;
  sim::Rng rng_;
  SurfaceProfile surface_;
  obs::Tracer* tracer_ = nullptr;
  // Sample-and-hold state.
  double held_volts_ = 0.0;
  double next_measurement_s_ = 0.0;
  bool ever_measured_ = false;
};

}  // namespace distscroll::sensors
