// Tests for the altitude-game logic (paper application area 3).
#include <gtest/gtest.h>

#include "game/altitude_game.h"

namespace distscroll::game {
namespace {

AltitudeGame make(std::uint64_t seed = 1) { return AltitudeGame(sim::Rng(seed)); }

TEST(AltitudeGame, StartsWithOneWallMidPlane) {
  auto game = make();
  EXPECT_EQ(game.walls().size(), 1u);
  EXPECT_EQ(game.plane_y(), display::kDisplayHeight / 2);
  EXPECT_EQ(game.score(), 0);
  EXPECT_EQ(game.crashes(), 0);
}

TEST(AltitudeGame, AltitudeClamped) {
  auto game = make();
  game.set_altitude(-5);
  EXPECT_EQ(game.plane_y(), 0);
  game.set_altitude(1000);
  EXPECT_EQ(game.plane_y(), display::kDisplayHeight - 1);
}

TEST(AltitudeGame, DistanceMapsLinearly) {
  auto game = make();
  game.set_altitude_from_distance(4.0, 4.0, 30.0);
  EXPECT_EQ(game.plane_y(), 0);
  game.set_altitude_from_distance(30.0, 4.0, 30.0);
  EXPECT_EQ(game.plane_y(), display::kDisplayHeight - 1);
  game.set_altitude_from_distance(17.0, 4.0, 30.0);
  EXPECT_NEAR(game.plane_y(), display::kDisplayHeight / 2, 1);
}

TEST(AltitudeGame, WallsApproachAndRespawn) {
  auto game = make();
  const int x0 = game.walls()[0].x;
  game.step();
  EXPECT_EQ(game.walls()[0].x, x0 - 1);
  for (int i = 0; i < 300; ++i) game.step();
  EXPECT_GE(game.walls().size(), 1u);   // always some walls on screen
  for (const auto& wall : game.walls()) EXPECT_GE(wall.x, 0);
}

TEST(AltitudeGame, ThreadingTheGapScores) {
  auto game = make();
  // Put the plane in the gap of the first wall and run until it passes.
  const auto& wall = game.walls()[0];
  game.set_altitude(wall.gap_y);
  const int steps = wall.x - AltitudeGame::kPlaneX;
  for (int i = 0; i < steps; ++i) {
    game.set_altitude(game.walls()[0].gap_y);  // track the gap
    game.step();
  }
  EXPECT_EQ(game.score(), AltitudeGame::kPassScore);
  EXPECT_EQ(game.crashes(), 0);
}

TEST(AltitudeGame, MissingTheGapCrashes) {
  auto game = make();
  const auto& wall = game.walls()[0];
  // Park well outside the gap.
  const int off_gap = (wall.gap_y > display::kDisplayHeight / 2) ? 0 : display::kDisplayHeight - 1;
  game.set_altitude(off_gap);
  const int steps = wall.x - AltitudeGame::kPlaneX;
  for (int i = 0; i < steps; ++i) game.step();
  EXPECT_EQ(game.crashes(), 1);
  EXPECT_EQ(game.score(), 0);
}

TEST(AltitudeGame, BulletBlastsWall) {
  auto game = make();
  game.set_altitude(0);  // out of the way of the gap logic
  game.fire();
  EXPECT_TRUE(game.bullet_in_flight());
  int guard = 0;
  while (game.bullet_in_flight() && ++guard < 100) game.step();
  // The bullet either hit the wall (+blast score) or flew off screen.
  if (game.score() > 0) {
    EXPECT_EQ(game.score(), AltitudeGame::kBlastScore);
    EXPECT_TRUE(game.walls().empty() || game.walls()[0].destroyed ||
                game.walls()[0].x > AltitudeGame::kPlaneX);
  }
}

TEST(AltitudeGame, DestroyedWallDoesNotCrash) {
  auto game = make();
  game.fire();
  int guard = 0;
  while (game.bullet_in_flight() && ++guard < 100) game.step();
  if (!game.walls().empty() && game.walls()[0].destroyed) {
    game.set_altitude(0);  // would crash into an intact wall
    const int steps = game.walls()[0].x - AltitudeGame::kPlaneX;
    for (int i = 0; i < steps && !game.walls().empty(); ++i) game.step();
    EXPECT_EQ(game.crashes(), 0);
  }
}

TEST(AltitudeGame, OnlyOneBulletAtATime) {
  auto game = make();
  game.fire();
  game.step();
  game.fire();  // ignored while in flight
  EXPECT_TRUE(game.bullet_in_flight());
}

TEST(AltitudeGame, RenderDrawsPlaneAndWalls) {
  auto game = make();
  display::Bt96040 panel;
  game.render(panel);
  // The plane wedge is at plane_x, plane_y.
  EXPECT_TRUE(panel.pixel(AltitudeGame::kPlaneX, game.plane_y()));
  // Wall column has pixels outside the gap.
  const auto& wall = game.walls()[0];
  const int outside = (wall.gap_y + wall.gap_half + 2) % display::kDisplayHeight;
  EXPECT_TRUE(panel.pixel(wall.x, outside) ||
              panel.pixel(wall.x, 0));  // one of the solid rows
  // Inside the gap is clear.
  EXPECT_FALSE(panel.pixel(wall.x, wall.gap_y));
}

/// FNV-1a over the panel's pixels, row by row, continuing from `hash`.
std::uint64_t fnv1a(const display::Bt96040& panel, std::uint64_t hash) {
  for (int y = 0; y < display::kDisplayHeight; ++y) {
    for (int x = 0; x < display::kDisplayWidth; ++x) {
      hash ^= panel.pixel(x, y) ? 1u : 0u;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

/// A fixed seed, a scripted altitude and a fixed fire schedule pin the
/// game's geometry and scoring: any change to a wall, gap, bullet or
/// score constant moves one of these values.
TEST(AltitudeGame, ScriptedRunIsPinned) {
  auto game = make(2024);
  display::Bt96040 panel;
  int spawned = 1;  // the constructor spawns the first wall
  std::uint64_t frames = 0xcbf29ce484222325ULL;
  for (int i = 0; i < 600; ++i) {
    if ((i / 150) % 2 == 0) {
      // Track the gap of the nearest intact wall ahead, one row low.
      for (const Wall& wall : game.walls()) {
        if (wall.x > 8 && !wall.destroyed) {
          game.set_altitude(wall.gap_y + 1);
          break;
        }
      }
    } else {
      game.set_altitude((i * 7 / 3) % 60 - 10);  // a sweep past both edges
    }
    if (i % 23 == 0) game.fire();
    game.step();
    for (const Wall& wall : game.walls()) spawned += wall.x == display::kDisplayWidth - 1 ? 1 : 0;
    if (i % 50 == 49) {
      game.render(panel);
      frames = fnv1a(panel, frames);
    }
  }
  EXPECT_EQ(game.score(), 27);
  EXPECT_EQ(game.crashes(), 4);
  EXPECT_EQ(spawned, 22);
  EXPECT_EQ(frames, 0x921bfb3f582835d8ULL);
}

TEST(AltitudeGame, DeterministicForSeed) {
  auto a = make(42);
  auto b = make(42);
  for (int i = 0; i < 200; ++i) {
    a.set_altitude(i % display::kDisplayHeight);
    b.set_altitude(i % display::kDisplayHeight);
    if (i % 17 == 0) {
      a.fire();
      b.fire();
    }
    a.step();
    b.step();
  }
  EXPECT_EQ(a.score(), b.score());
  EXPECT_EQ(a.crashes(), b.crashes());
}

}  // namespace
}  // namespace distscroll::game
