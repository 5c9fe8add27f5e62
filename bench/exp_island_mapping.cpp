// Section 4.2 reproduction: the island mapping.
//
// Shows, for several menu sizes, the islands' count intervals and their
// widths in centimetres ("perceived equal spacing"), the selection-free
// gap fraction, and two ablations DESIGN.md calls out:
//   * coverage (dead-zone fraction): stability vs responsiveness under
//     hand tremor;
//   * hysteresis: boundary flicker suppression.
#include <cstdio>

#include "core/island_mapper.h"
#include "core/scroll_controller.h"
#include "human/hand_model.h"
#include "sensors/gp2d120.h"
#include "study/report.h"
#include "util/csv.h"

using namespace distscroll;

namespace {

/// Selection flicker while holding on an island boundary with tremor:
/// counts how often the selection changes in 30 s of holding.
int flicker_count(double coverage, std::uint16_t hysteresis, double tremor_cm,
                  std::uint64_t seed) {
  core::SensorCurve curve;
  core::IslandMapper::Config island_config;
  island_config.coverage = coverage;
  island_config.hysteresis_counts = hysteresis;
  core::IslandMapper mapper(curve, 10, island_config);
  core::ScrollController controller(mapper, {});

  sim::Rng rng(seed);
  sensors::Gp2d120Model::Config sensor_config;
  sensors::Gp2d120Model sensor(sensor_config, rng.fork(1));
  human::Tremor::Config tremor_config;
  tremor_config.amplitude_cm = tremor_cm;
  human::Tremor tremor(tremor_config, rng.fork(2));

  // Hold exactly on the boundary between islands 4 and 5 — worst case.
  const double boundary_cm = (mapper.centre_distance(4).value + mapper.centre_distance(5).value) / 2.0;
  int changes = 0;
  for (double t = 0.0; t < 30.0; t += 0.02) {
    const double d = boundary_cm + tremor.displacement_cm(t);
    const double v = sensor.output(util::Centimeters{d}, util::Seconds{t}).value;
    // Truncates, unlike util::adc10_counts (which rounds): switching would change the CSV.
    const auto counts = util::AdcCounts{static_cast<std::uint16_t>(
        std::min(1023.0, std::max(0.0, v / 5.0 * 1023.0 + rng.gaussian(0.0, 0.5))))};
    if (controller.on_sample(counts).changed) ++changes;
  }
  return changes;
}

}  // namespace

int main() {
  core::SensorCurve curve;

  std::printf("=== Island tables (Section 4.2 mapping) ===\n\n");
  for (const std::size_t entries : {5u, 10u, 20u}) {
    core::IslandMapper mapper(curve, entries, {});
    study::Table table({"entry", "centre[cm]", "counts[lo..hi]", "width[counts]", "width[cm]"});
    for (std::size_t i = 0; i < entries; ++i) {
      const auto& island = mapper.islands()[i];
      char bounds[32];
      std::snprintf(bounds, sizeof(bounds), "%u..%u", island.low, island.high);
      const double w_cm =
          curve.distance_at(util::AdcCounts{island.low}).value -
          curve.distance_at(util::AdcCounts{island.high}).value;
      table.add_row({std::to_string(i), study::fmt(mapper.centre_distance(i).value, 1), bounds,
                     std::to_string(island.high - island.low), study::fmt(w_cm, 2)});
    }
    std::printf("%zu entries  (coverage of count spectrum: %.2f)\n%s\n", entries,
                mapper.coverage_fraction(), table.render().c_str());
  }
  std::printf("note: count widths shrink toward the far end (hyperbolic curve)\n"
              "while cm widths stay ~equal — the paper's engineered perception\n"
              "of equally spaced entries.\n\n");

  std::printf("=== Ablation: coverage (dead zones) vs boundary flicker ===\n");
  std::printf("holding ON an island boundary, physiological tremor, 30 s:\n\n");
  study::Table ablation({"coverage", "hysteresis", "tremor[cm]", "selection changes"});
  util::CsvWriter csv("exp_island_mapping.csv",
                      {"coverage", "hysteresis", "tremor_cm", "changes"});
  for (const double coverage : {0.3, 0.6, 0.9, 1.0}) {
    for (const std::uint16_t hysteresis : {std::uint16_t{0}, std::uint16_t{4}}) {
      for (const double tremor : {0.08, 0.2}) {
        const int changes = flicker_count(coverage, hysteresis, tremor, 42);
        ablation.add_row({study::fmt(coverage, 1), std::to_string(hysteresis),
                          study::fmt(tremor, 2), std::to_string(changes)});
        csv.row({coverage, static_cast<double>(hysteresis), tremor,
                 static_cast<double>(changes)});
      }
    }
  }
  std::printf("%s\n", ablation.render().c_str());
  std::printf("expected shape: coverage=1.0 (no dead zones) flickers most;\n"
              "the paper's gaps and/or hysteresis suppress boundary chatter.\n");
  std::printf("wrote exp_island_mapping.csv\n");
  return 0;
}
