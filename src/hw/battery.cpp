#include "hw/battery.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace distscroll::hw {

namespace {
constexpr double kNominalVolts = 9.0;
constexpr double kInternalOhms = 1.7;  // causes sag under load
constexpr double kCutoffVolts = 6.0;   // below this the regulator drops out
}  // namespace

std::size_t Battery::add_consumer(std::string name, double draw_ma) {
  assert(draw_ma >= 0.0);
  consumers_.push_back({std::move(name), draw_ma});
  consumer_mah_.push_back(0.0);
  return consumers_.size() - 1;
}

double Battery::total_draw_ma() const {
  double total = 0.0;
  for (const auto& c : consumers_) total += c.draw_ma;
  return total;
}

void Battery::consume(util::Seconds dt) {
  assert(dt.value >= 0.0);
  const double hours = dt.value / 3600.0;
  for (std::size_t i = 0; i < consumers_.size(); ++i) {
    const double mah = consumers_[i].draw_ma * hours;
    consumer_mah_[i] += mah;
    consumed_mah_ += mah;
  }
}

util::Volts Battery::voltage() const {
  // Linear open-circuit discharge curve 9.0 V (full) -> 7.2 V (empty),
  // a reasonable approximation of an alkaline block over its usable
  // range, minus resistive sag at the present load.
  const double frac = remaining_fraction();
  const double open_circuit = kNominalVolts - (1.0 - frac) * 1.8;
  const double sag = kInternalOhms * total_draw_ma() / 1000.0;
  return util::Volts{std::max(0.0, open_circuit - sag)};
}

double Battery::remaining_fraction() const {
  if (config_.capacity_mah <= 0.0) return 0.0;
  return std::clamp(1.0 - consumed_mah_ / config_.capacity_mah, 0.0, 1.0);
}

bool Battery::depleted() const {
  return remaining_fraction() <= 0.0 || voltage().value < kCutoffVolts;
}

double Battery::estimated_runtime_hours() const {
  const double draw = total_draw_ma();
  if (draw <= 0.0) return std::numeric_limits<double>::infinity();
  return (config_.capacity_mah - consumed_mah_) / draw;
}

const std::string& Battery::consumer_name(std::size_t consumer) const {
  assert(consumer < consumers_.size());
  return consumers_[consumer].name;
}

}  // namespace distscroll::hw
