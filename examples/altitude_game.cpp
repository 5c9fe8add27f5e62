// Application area 3 of the paper (Section 5.2): games. "We think of
// any sort of character (e.g. aircraft) staying on a fixed position
// somewhere on the left side of the display. The altitude of the
// character is controlled by moving the DistScroll. ... Firing bullets
// ... can also be simulated using one or more buttons."
//
// Uses the game::AltitudeGame library on the device's CONTINUOUS
// sensing path (curve inverse on raw ADC counts rather than islands).
// A scripted "player hand" with human reaction delay and tremor plays a
// 30-second round on the BT96040.
#include <cstdio>

#include "core/sensor_curve.h"
#include "game/altitude_game.h"
#include "hw/adc.h"
#include "human/fitts.h"
#include "human/hand_model.h"
#include "human/user_profile.h"
#include "sensors/gp2d120.h"

using namespace distscroll;

int main() {
  sim::Rng rng(4242);

  // The sensing path: GP2D120 -> ADC -> curve inverse = continuous
  // altitude control (no islands — games want the raw parameter).
  sensors::Gp2d120Model ranger({}, rng.fork(1));
  hw::Adc10 adc({}, rng.fork(2));
  core::SensorCurve curve;
  human::HandModel hand(rng.fork(3), 17.0);
  // AnalogSource is non-owning: keep the callable alive alongside the ADC.
  auto ranger_source = [&](util::Seconds now) { return ranger.output(hand.distance(now), now); };
  const auto channel = adc.attach(ranger_source);

  display::Bt96040 panel;
  game::AltitudeGame game(rng.fork(4));

  // Scripted player: re-plans toward the next wall's gap at ~4 Hz
  // (reaction-limited), occasionally firing with the thumb.
  sim::Rng fire_rng = rng.fork(5);
  const auto profile = human::UserProfile::average();
  int frames = 0;
  for (double t = 0.0; t < 30.0; t += 0.05) {
    const game::Wall* next = nullptr;
    for (const auto& wall : game.walls()) {
      if (wall.x > game::AltitudeGame::kPlaneX && !wall.destroyed && (!next || wall.x < next->x)) {
        next = &wall;
      }
    }
    if (next != nullptr && frames % 5 == 0) {
      // Gap altitude -> target distance on the 4..30 cm span.
      const double target_cm =
          4.0 + (30.0 - 4.0) * next->gap_y / (display::kDisplayHeight - 1);
      const auto reach = human::movement_time(profile.reach_fitts,
                                              std::abs(target_cm - hand.target_cm()), 2.0);
      hand.start_reach(util::Seconds{t}, target_cm, reach);
      if (fire_rng.bernoulli(0.12)) game.fire();
    }
    // Sensing: distance -> counts -> altitude.
    const auto counts = adc.sample(channel, util::Seconds{t});
    game.set_altitude_from_distance(curve.distance_at(counts).value, 4.0, 30.0);
    game.step();
    ++frames;
  }

  game.render(panel);
  std::printf("=== DistScroll altitude game — final frame after 30 s ===\n");
  std::printf("%s", panel.render_ascii().c_str());
  std::printf("score: %d   crashes: %d   (gap threaded: +%d, wall blasted: +%d)\n",
              game.score(), game.crashes(), game::AltitudeGame::kPassScore,
              game::AltitudeGame::kBlastScore);
  std::printf("\nthe same sensor+curve stack the menu firmware uses, consumed as a\n"
              "continuous parameter — the paper's game application area.\n");
  return 0;
}
