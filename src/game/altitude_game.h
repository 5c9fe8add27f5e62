// The paper's game application area (Section 5.2) as a library:
// "any sort of character (e.g. aircraft) staying on a fixed position
// somewhere on the left side of the display. The altitude of the
// character is controlled by moving the DistScroll. This is done to
// avoid obstacles or to collect items. ... Firing bullets or dropping
// objects can also be simulated using one or more buttons."
//
// Pure game logic (deterministic given its Rng): walls with gaps
// approach the plane; the plane's altitude is set externally from the
// continuous distance channel; a button fires bullets that blast walls.
// Rendering targets the BT96040 framebuffer via raw blits.
#pragma once

#include <vector>

#include "display/bt96040.h"
#include "sim/random.h"

namespace distscroll::game {

struct Wall {
  int x;         // column, decreasing as it approaches
  int gap_y;     // centre of the gap
  int gap_half;  // half height of the gap
  bool destroyed = false;
};

class AltitudeGame {
 public:
  /// The plane's column; walls score or crash as they reach it.
  static constexpr int kPlaneX = 8;
  static constexpr int kPassScore = 1;   // for threading a gap
  static constexpr int kBlastScore = 2;  // for shooting a wall

  explicit AltitudeGame(sim::Rng rng);

  [[nodiscard]] int score() const { return score_; }
  [[nodiscard]] int crashes() const { return crashes_; }
  // ds-lint: allow(test-only-api) the game tests steer the plane; the example shows only the framebuffer
  [[nodiscard]] int plane_y() const { return plane_y_; }
  [[nodiscard]] const std::vector<Wall>& walls() const { return walls_; }
  // ds-lint: allow(test-only-api) the shooting tests wait for the bullet; no program output shows it
  [[nodiscard]] bool bullet_in_flight() const { return bullet_x_ >= 0; }

  /// Set the plane's altitude (clamped to the screen).
  void set_altitude(int y);

  /// Map a distance in [near, far] cm linearly onto the altitude range —
  /// the continuous use of the sensing channel.
  void set_altitude_from_distance(double distance_cm, double near_cm, double far_cm);

  /// Fire a bullet (one at a time, as from the thumb button).
  void fire();

  /// Advance one frame: walls approach, bullets fly, hits/crashes score.
  void step();

  /// Render into a BT96040 via Blit commands.
  void render(display::Bt96040& panel) const;

 private:
  // The game fills the panel.
  static constexpr int kWidth = display::kDisplayWidth;
  static constexpr int kHeight = display::kDisplayHeight;
  static constexpr int kMinGapHalf = 4;
  static constexpr int kMaxGapHalf = 7;
  static constexpr int kWallSpacing = 28;  // columns between spawns
  static constexpr int kBulletSpeed = 3;   // columns per step

  void spawn_wall();

  sim::Rng rng_;
  int plane_y_;
  std::vector<Wall> walls_;
  int bullet_x_ = -1;
  int bullet_y_ = 0;
  int score_ = 0;
  int crashes_ = 0;
};

}  // namespace distscroll::game
