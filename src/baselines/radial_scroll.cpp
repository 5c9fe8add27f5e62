#include "baselines/radial_scroll.h"

#include <algorithm>

namespace distscroll::baselines {

constexpr double kEntriesPerRevolution = 8.0;

void RadialScroll::reset(std::size_t level_size, std::size_t start_index) {
  level_size_ = std::max<std::size_t>(1, level_size);
  position_ = static_cast<double>(std::min(start_index, level_size_ - 1));
  cursor_ = entry_at(position_, level_size_);
  have_last_u_ = false;
}

void RadialScroll::on_control(util::Seconds /*now*/, double u) {
  if (!have_last_u_) {
    last_u_ = u;
    have_last_u_ = true;
    return;
  }
  const double du = u - last_u_;
  last_u_ = u;
  position_ += du * kEntriesPerRevolution;
  position_ = std::clamp(position_, 0.0, static_cast<double>(level_size_ - 1));
  cursor_ = entry_at(position_, level_size_);
}

}  // namespace distscroll::baselines
