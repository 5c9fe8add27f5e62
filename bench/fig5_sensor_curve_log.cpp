// Figure 5 reproduction: "Visualization of the sensor values using
// logarithmic axis. The measured values (asterisks) nearly perfectly fit
// the curve."
//
// Same sweep as Fig. 4, drawn on log-log axes where the hyperbolic
// response is near-linear; we report the power-law fit and its R² on
// the log-log residuals as the quantitative version of "nearly
// perfectly fit".
#include <cstdio>

#include "core/calibration.h"
#include "sensors/gp2d120.h"
#include "util/ascii_plot.h"
#include "util/csv.h"
#include "util/rounding.h"
#include "util/stats.h"

using namespace distscroll;

int main() {
  sim::Rng rng(20050415);
  sensors::Gp2d120Model ranger({}, rng.fork(1), sensors::SurfaceProfile::gray_jacket());

  double fake_time = 0.0;
  auto read_counts = [&](util::Centimeters d) {
    fake_time += 0.1;
    const util::Volts v = ranger.output(d, util::Seconds{fake_time});
    return util::adc10_counts(v.value, 0.0);
  };

  const auto samples = core::sweep(util::Centimeters{4.0}, util::Centimeters{32.0}, 1.0,
                                   read_counts, /*repeats=*/4);

  std::vector<double> xs, ys;
  for (const auto& s : samples) {
    xs.push_back(s.distance.value);
    ys.push_back(util::adc10_volts(s.counts).value);
  }
  const util::PowerFit fit = util::fit_power(xs, ys);

  std::vector<double> fit_xs, fit_ys;
  for (double d = 4.0; d <= 32.0; d += 0.25) {
    fit_xs.push_back(d);
    fit_ys.push_back(fit.A * std::pow(d, fit.b));
  }

  util::PlotOptions options;
  options.log_x = true;
  options.log_y = true;
  options.title = "Fig. 5 — GP2D120 output vs distance, log-log (measured * / fitted -)";
  options.x_label = "distance [cm] (log)";
  options.y_label = "voltage [V] (log)";
  std::printf("%s\n", util::ascii_plot(xs, ys, fit_xs, fit_ys, options).c_str());

  std::printf("power-law fit: V(d) = %.3f * d^%.3f\n", fit.A, fit.b);
  std::printf("log-log R^2 = %.5f  (paper: \"nearly perfectly fit\")\n", fit.r_squared);

  util::CsvWriter csv("fig5_sensor_curve_log.csv",
                      {"distance_cm", "measured_volts", "powerlaw_volts"});
  for (std::size_t i = 0; i < xs.size(); ++i) {
    csv.row({xs[i], ys[i], fit.A * std::pow(xs[i], fit.b)});
  }
  std::printf("wrote fig5_sensor_curve_log.csv\n");
  return 0;
}
