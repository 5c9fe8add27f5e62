#include "game/altitude_game.h"

#include <algorithm>
#include <cmath>

namespace distscroll::game {

AltitudeGame::AltitudeGame(sim::Rng rng) : rng_(rng), plane_y_(kHeight / 2) {
  spawn_wall();
}

void AltitudeGame::spawn_wall() {
  const int margin = kMaxGapHalf + 1;
  walls_.push_back({kWidth - 1,
                    rng_.uniform_int(margin, kHeight - 1 - margin),
                    rng_.uniform_int(kMinGapHalf, kMaxGapHalf)});
}

void AltitudeGame::set_altitude(int y) {
  plane_y_ = std::clamp(y, 0, kHeight - 1);
}

void AltitudeGame::set_altitude_from_distance(double distance_cm, double near_cm,
                                              double far_cm) {
  const double t = std::clamp((distance_cm - near_cm) / (far_cm - near_cm), 0.0, 1.0);
  set_altitude(static_cast<int>(std::lround(t * (kHeight - 1))));
}

void AltitudeGame::fire() {
  if (bullet_x_ < 0) {
    bullet_x_ = kPlaneX + 2;
    bullet_y_ = plane_y_;
  }
}

void AltitudeGame::step() {
  for (auto& wall : walls_) --wall.x;

  if (bullet_x_ >= 0) {
    bullet_x_ += kBulletSpeed;
    for (auto& wall : walls_) {
      if (!wall.destroyed && wall.x >= bullet_x_ - kBulletSpeed + 1 &&
          wall.x <= bullet_x_) {
        wall.destroyed = true;  // blasted: free passage
        bullet_x_ = -1;
        score_ += kBlastScore;
        break;
      }
    }
    if (bullet_x_ >= kWidth) bullet_x_ = -1;
  }

  for (const auto& wall : walls_) {
    if (wall.x == kPlaneX && !wall.destroyed) {
      if (std::abs(plane_y_ - wall.gap_y) <= wall.gap_half) {
        score_ += kPassScore;  // threaded the gap
      } else {
        ++crashes_;
      }
    }
  }

  walls_.erase(
      std::remove_if(walls_.begin(), walls_.end(), [](const Wall& w) { return w.x < 0; }),
      walls_.end());
  if (walls_.empty() || walls_.back().x < kWidth - kWallSpacing) {
    spawn_wall();
  }
}

void AltitudeGame::render(display::Bt96040& panel) const {
  std::vector<std::uint8_t> frame;
  for (int page = 0; page < (kHeight + 7) / 8; ++page) {
    frame.assign(static_cast<std::size_t>(kWidth) + 3, 0);
    frame[0] = static_cast<std::uint8_t>(display::Command::Blit);
    frame[1] = 0;  // x0
    frame[2] = static_cast<std::uint8_t>(page);
    auto set_pixel = [&](int x, int y) {
      if (x < 0 || x >= kWidth) return;
      if (y < page * 8 || y >= page * 8 + 8 || y >= kHeight) return;
      frame[static_cast<std::size_t>(3 + x)] |= static_cast<std::uint8_t>(1u << (y - page * 8));
    };
    // Plane: a 3-pixel wedge.
    set_pixel(kPlaneX - 1, plane_y_);
    set_pixel(kPlaneX, plane_y_);
    set_pixel(kPlaneX, plane_y_ - 1);
    if (bullet_x_ >= 0) set_pixel(bullet_x_, bullet_y_);
    for (const auto& wall : walls_) {
      if (wall.destroyed) continue;
      for (int y = 0; y < kHeight; ++y) {
        if (std::abs(y - wall.gap_y) > wall.gap_half) set_pixel(wall.x, y);
      }
    }
    panel.on_write(frame);
  }
}

}  // namespace distscroll::game
