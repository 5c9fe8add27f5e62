// Speed-dependent automatic zooming for long menus.
//
// The paper's suggested remedy for long menus cites Igarashi & Hinckley's
// speed-dependent automatic zooming [6]: when the user moves fast the
// view zooms out (coarse granularity — each island addresses a bucket of
// entries); when the user dwells, the view zooms back in (islands address
// individual entries inside the landed bucket).
//
// Fed with island-selection updates from the ScrollController; emits the
// absolute entry index under the current zoom.
#pragma once

#include <cstddef>
#include <optional>

#include "util/units.h"

namespace distscroll::core {

class SpeedZoom {
 public:
  struct Config {
    /// Island hops per second above which the view zooms out.
    double zoom_out_velocity = 6.0;
    /// Dwell (no island change) after which the view zooms back in.
    util::Seconds zoom_in_dwell{0.6};
    /// Velocity estimator smoothing (exponential, per update).
    double velocity_alpha = 0.4;
  };

  enum class Mode : std::uint8_t { Fine, Coarse };

  SpeedZoom(std::size_t total_entries, std::size_t islands) : SpeedZoom(total_entries, islands, Config{}) {}
  SpeedZoom(std::size_t total_entries, std::size_t islands, Config config);

  [[nodiscard]] Mode mode() const { return mode_; }
  [[nodiscard]] std::size_t total_entries() const { return total_; }
  [[nodiscard]] std::size_t islands() const { return islands_; }

  /// Process an island-selection update; returns the absolute entry the
  /// cursor should sit on.
  std::size_t on_update(util::Seconds now, std::size_t island_index);

  void reset();

 private:
  [[nodiscard]] std::size_t coarse_entry(std::size_t island_index) const;
  [[nodiscard]] std::size_t fine_entry(std::size_t island_index) const;

  Config config_;
  std::size_t total_;
  std::size_t islands_;
  std::size_t bucket_size_;
  Mode mode_ = Mode::Coarse;
  double velocity_ = 0.0;
  std::optional<std::size_t> last_island_;
  util::Seconds last_change_time_{0.0};
  util::Seconds last_update_time_{0.0};
  std::size_t anchor_bucket_ = 0;  // bucket the fine view is zoomed into
  std::size_t current_entry_ = 0;
};

}  // namespace distscroll::core
