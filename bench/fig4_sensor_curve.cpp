// Figure 4 reproduction: "Visualization of the sensor values (measured
// analog voltage at Smart-Its input port). The measured values
// (asterisks) and an idealized curve fitted through these is displayed."
//
// We sweep the true distance 4..32 cm in front of the simulated GP2D120,
// read it through the 10-bit ADC exactly as the Smart-Its does, fit the
// idealised V(d) = a/(d+k)+c curve and plot both — plus the full
// 0..32 cm sweep showing the non-monotonic < 4 cm branch the paper
// discusses.
#include <cstdio>

#include "core/calibration.h"
#include "hw/adc.h"
#include "sensors/gp2d120.h"
#include "util/ascii_plot.h"
#include "util/csv.h"
#include "util/rounding.h"

using namespace distscroll;

int main() {
  sim::Rng rng(20050415);  // any fixed seed: results are deterministic
  sensors::Gp2d120Model ranger({}, rng.fork(1), sensors::SurfaceProfile::gray_jacket());
  hw::Adc10 adc({}, rng.fork(2));

  // A fresh sensor sample per reading: hold each distance longer than
  // the 38 ms measurement period, as a tripod sweep would.
  double fake_time = 0.0;
  auto read_counts = [&](util::Centimeters d) {
    fake_time += 0.1;
    const util::Volts v = ranger.output(d, util::Seconds{fake_time});
    // Route through the ADC quantisation path (noiseless).
    return util::adc10_counts(v.value, 0.0);
  };

  const auto samples = core::sweep(util::Centimeters{4.0}, util::Centimeters{32.0}, 1.0,
                                   read_counts, /*repeats=*/4);
  const auto calibration = core::calibrate(samples);

  std::vector<double> xs, ys, fit_xs, fit_ys;
  for (const auto& s : samples) {
    xs.push_back(s.distance.value);
    ys.push_back(util::adc10_volts(s.counts).value);
  }
  for (double d = 4.0; d <= 32.0; d += 0.25) {
    fit_xs.push_back(d);
    fit_ys.push_back(calibration.curve.volts_at(util::Centimeters{d}).value);
  }

  util::PlotOptions options;
  options.title = "Fig. 4 — GP2D120 output vs distance (measured * / fitted -)";
  options.x_label = "distance [cm]";
  options.y_label = "voltage [V]";
  std::printf("%s\n", util::ascii_plot(xs, ys, fit_xs, fit_ys, options).c_str());

  std::printf("fitted curve: V(d) = %.3f/(d + %.3f) + %.3f   R^2 = %.5f\n",
              calibration.curve.params().a, calibration.curve.params().k,
              calibration.curve.params().c, calibration.r_squared);
  std::printf("usable range per calibration: %.1f .. %.1f cm (paper: 4 .. 30 cm)\n\n",
              calibration.usable_near.value, calibration.usable_far.value);

  // The non-monotonic near branch (Section 4.2).
  std::printf("near-branch check (ideal output, no noise):\n");
  std::printf("  %6s  %8s\n", "d[cm]", "V[V]");
  for (double d : {0.5, 1.0, 2.0, 3.0, 3.2, 3.5, 4.0, 6.0}) {
    std::printf("  %6.1f  %8.3f\n", d, ranger.ideal_output(util::Centimeters{d}).value);
  }

  util::CsvWriter csv("fig4_sensor_curve.csv", {"distance_cm", "measured_volts", "fitted_volts"});
  for (std::size_t i = 0; i < xs.size(); ++i) {
    csv.row({xs[i], ys[i], calibration.curve.volts_at(util::Centimeters{xs[i]}).value});
  }
  std::printf("\nwrote fig4_sensor_curve.csv\n");
  return 0;
}
