// Tests for the human motor model: min-jerk kinematics, tremor, Fitts
// timing, profiles and the closed-loop planner on a synthetic technique.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/scroll_technique.h"
#include "human/fitts.h"
#include "human/hand_model.h"
#include "human/motion_planner.h"
#include "human/user_profile.h"

namespace distscroll::human {
namespace {

// --- min jerk -----------------------------------------------------------------

TEST(MinJerk, EndpointsExact) {
  EXPECT_DOUBLE_EQ(min_jerk(2.0, 10.0, 0.0, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(min_jerk(2.0, 10.0, 1.0, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(min_jerk(2.0, 10.0, 5.0, 1.0), 10.0);  // past the end
}

TEST(MinJerk, MonotoneAndSmooth) {
  double prev = 0.0;
  double max_step = 0.0;
  for (double t = 0.0; t <= 1.0; t += 0.01) {
    const double x = min_jerk(0.0, 1.0, t, 1.0);
    EXPECT_GE(x, prev - 1e-12);
    max_step = std::max(max_step, x - prev);
    prev = x;
  }
  // Peak velocity of min-jerk is 1.875 * average: bell-shaped profile.
  EXPECT_NEAR(max_step / 0.01, 1.875, 0.05);
}

TEST(MinJerk, MidpointIsHalf) {
  EXPECT_NEAR(min_jerk(0.0, 1.0, 0.5, 1.0), 0.5, 1e-12);
}

// --- tremor ----------------------------------------------------------------------

TEST(Tremor, BoundedAmplitude) {
  Tremor::Config config;
  config.amplitude_cm = 0.1;
  config.amplitude_jitter = 0.2;
  Tremor tremor(config, sim::Rng(1));
  for (double t = 0.0; t < 5.0; t += 0.003) {
    EXPECT_LT(std::abs(tremor.displacement_cm(t)), 0.3);
  }
}

TEST(Tremor, OscillatesAtConfiguredBand) {
  Tremor::Config config;
  config.frequency_hz = 9.0;
  config.amplitude_jitter = 0.0;
  Tremor tremor(config, sim::Rng(2));
  // Count zero crossings over 2 s: ~2 * 9 Hz * 2 s = 36.
  int crossings = 0;
  double prev = tremor.displacement_cm(0.0);
  for (double t = 0.001; t < 2.0; t += 0.001) {
    const double x = tremor.displacement_cm(t);
    if ((x > 0) != (prev > 0)) ++crossings;
    prev = x;
  }
  EXPECT_NEAR(crossings, 36, 4);
}

TEST(Tremor, SparseEvaluationMatchesDenseBitForBit) {
  Tremor::Config config;
  config.amplitude_jitter = 0.4;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Tremor dense(config, sim::Rng(seed));
    Tremor sparse(config, sim::Rng(seed));
    // Advance on every 4 ms step, but evaluate only on an irregular
    // subset (every 5th or 6th step, like a 20 ms firmware tick).
    double next = 0.0;
    std::size_t evaluated = 0;
    std::size_t steps = 0;
    for (double t = 0.0; t < 3.0; t += 0.004, ++steps) {
      const double expected = dense.displacement_cm(t);
      sparse.advance(t);
      if (t < next) continue;
      next = t + 0.02;
      ++evaluated;
      EXPECT_EQ(sparse.at(t, sparse.amplitude()), expected) << "seed " << seed << " t " << t;
    }
    EXPECT_LT(evaluated * 4, steps);
    EXPECT_EQ(sparse.rng().engine_state(), dense.rng().engine_state()) << "seed " << seed;
  }
}

// --- hand model ---------------------------------------------------------------------

TEST(HandModel, ReachMovesToTarget) {
  HandModel hand(sim::Rng(3), 17.0);
  hand.start_reach(util::Seconds{0.0}, 8.0, util::Seconds{0.5});
  EXPECT_NEAR(hand.distance(util::Seconds{1.0}).value, 8.0, 0.3);  // tremor slop
}

TEST(HandModel, SupersedingReachStartsFromCurrentPosition) {
  HandModel hand(sim::Rng(4), 20.0);
  hand.start_reach(util::Seconds{0.0}, 5.0, util::Seconds{1.0});
  const double mid = hand.distance(util::Seconds{0.5}).value;
  hand.start_reach(util::Seconds{0.5}, 25.0, util::Seconds{0.5});
  // Position continues from mid, no teleport: the tremor at one time is
  // the same on both sides of the new reach.
  EXPECT_NEAR(hand.distance(util::Seconds{0.5}).value, mid, 1e-9);
  // The reach ends exactly at 25 cm: a tremor on the hand's stream, asked
  // at the same times, gives the displacement riding on top.
  Tremor reference(Tremor::Config{}, sim::Rng(4).fork(1));
  (void)reference.displacement_cm(0.5);
  (void)reference.displacement_cm(0.5);
  EXPECT_NEAR(hand.distance(util::Seconds{1.1}).value, 25.0 + reference.displacement_cm(1.1), 1e-9);
}

TEST(HandModel, ClampsToPhysicalRange) {
  // The clamp applies after the tremor is added, so it holds with tremor.
  HandModel hand(sim::Rng(5), 17.0);
  hand.start_reach(util::Seconds{0.0}, 99.0, util::Seconds{0.1});
  EXPECT_LE(hand.distance(util::Seconds{0.2}).value, 45.0);
}

// --- Fitts -----------------------------------------------------------------------------

TEST(Fitts, IdZeroForZeroAmplitude) {
  EXPECT_DOUBLE_EQ(index_of_difficulty(0.0, 1.0), 0.0);
}

TEST(Fitts, IdGrowsWithAmplitudeShrinkWithWidth) {
  EXPECT_GT(index_of_difficulty(20.0, 1.0), index_of_difficulty(10.0, 1.0));
  EXPECT_GT(index_of_difficulty(10.0, 0.5), index_of_difficulty(10.0, 1.0));
}

TEST(Fitts, MovementTimeLinearInId) {
  const FittsParams params{0.1, 0.15};
  const double t1 = movement_time(params, 10.0, 1.0).value;   // ID ~3.46
  const double t2 = movement_time(params, 30.0, 1.0).value;   // ID ~4.95
  EXPECT_NEAR((t2 - t1) / (index_of_difficulty(30, 1) - index_of_difficulty(10, 1)), 0.15,
              1e-9);
}

// --- profiles -----------------------------------------------------------------------

TEST(UserProfile, ExpertiseImprovesEverything) {
  const auto novice = UserProfile{}.with_expertise(0.15);
  const auto expert = UserProfile{}.with_expertise(0.95);
  EXPECT_GT(novice.aim_w0_cm, expert.aim_w0_cm);
  EXPECT_GT(novice.verification_time_s, expert.verification_time_s);
  EXPECT_GT(novice.reaction_time_s, expert.reaction_time_s);
  EXPECT_GT(novice.button_miss_probability, expert.button_miss_probability);
}

TEST(UserProfile, ThickGlovesRuinFineMotorNotReaching) {
  const auto bare = UserProfile::average();
  const auto gloved = bare.with_glove(Glove::Thick);
  // Fine motor: large penalty.
  EXPECT_GT(gloved.fine_motor_penalty, 2.0);
  EXPECT_GT(gloved.button_miss_probability, 3.0 * bare.button_miss_probability);
  // Gross reaching: small penalty (< 20%).
  EXPECT_LT(gloved.aim_w0_cm / bare.aim_w0_cm, 1.2);
}

TEST(UserProfile, ApplicationIsIdempotent) {
  const auto once = UserProfile::average().with_glove(Glove::Thick);
  const auto twice = once.with_glove(Glove::Thick).with_glove(Glove::Thick);
  EXPECT_DOUBLE_EQ(once.button_press_s, twice.button_press_s);
  EXPECT_DOUBLE_EQ(once.tremor.amplitude_cm, twice.tremor.amplitude_cm);
  const auto relearn = once.with_expertise(0.5);
  EXPECT_DOUBLE_EQ(relearn.button_press_s, once.with_expertise(0.5).button_press_s);
}

TEST(UserProfile, ExpertiseClamped) {
  EXPECT_DOUBLE_EQ(UserProfile{}.with_expertise(5.0).expertise, 1.0);
  EXPECT_DOUBLE_EQ(UserProfile{}.with_expertise(-2.0).expertise, 0.0);
}

TEST(Practice, SaturatesTowardFullExpertise) {
  const double start = UserProfile{}.with_expertise(0.15).expertise;
  const double practiced = practice(start, 0.35, 8);
  EXPECT_GT(practiced, 0.85);
  EXPECT_LE(practiced, 1.0);
  // k blocks at once equal k single blocks.
  double stepwise = start;
  for (int block = 0; block < 8; ++block) stepwise = practice(stepwise, 0.35);
  EXPECT_EQ(practiced, stepwise);
  EXPECT_EQ(practice(start, 0.35, 0), start);  // no blocks, no learning
}

// --- planner on a synthetic absolute technique -----------------------------------------

/// A perfect absolute technique: u in [0, 10] maps linearly onto the
/// level. Lets us test the planner's closed loop without sensor noise.
class LinearAbsolute final : public baselines::ScrollTechnique {
 public:
  std::string name() const override { return "linear"; }
  baselines::ControlSpec spec() const override {
    return {baselines::ControlStyle::AbsolutePosition, 0.0, 10.0, 5.0, 0.0, "u"};
  }
  void reset(std::size_t level_size, std::size_t start) override {
    size_ = level_size;
    cursor_ = start;
  }
  std::size_t cursor() const override { return cursor_; }
  std::size_t level_size() const override { return size_; }
  void on_control(util::Seconds, double u) override {
    const double slot = 10.0 / static_cast<double>(size_);
    const auto index = static_cast<long>(u / slot);
    cursor_ = static_cast<std::size_t>(std::clamp(index, 0L, static_cast<long>(size_) - 1));
  }
  std::optional<double> target_u(std::size_t target) const override {
    const double slot = 10.0 / static_cast<double>(size_);
    return (static_cast<double>(target) + 0.5) * slot;
  }
  double target_width_u(std::size_t) const override { return 10.0 / static_cast<double>(size_); }

 private:
  std::size_t size_ = 1;
  std::size_t cursor_ = 0;
};

TEST(MotionPlanner, AcquiresTargetOnCleanTechnique) {
  LinearAbsolute technique;
  technique.reset(10, 0);
  MotionPlanner planner(sim::Rng(1));
  const auto outcome = planner.acquire(technique, 7, UserProfile::average());
  EXPECT_TRUE(outcome.success);
  EXPECT_EQ(technique.cursor(), 7u);
  EXPECT_GT(outcome.time_s, 0.3);   // humans aren't instant
  EXPECT_LT(outcome.time_s, 10.0);  // but not lost either
  EXPECT_NEAR(outcome.id_bits, std::log2(8.0), 1e-9);
}

TEST(MotionPlanner, ExpertsFasterThanNovices) {
  double novice_total = 0.0, expert_total = 0.0;
  for (int i = 0; i < 20; ++i) {
    LinearAbsolute technique;
    technique.reset(10, 0);
    MotionPlanner planner(sim::Rng(100 + i));
    novice_total += planner.acquire(technique, 8, UserProfile{}.with_expertise(0.15)).time_s;
    technique.reset(10, 0);
    MotionPlanner planner2(sim::Rng(200 + i));
    expert_total += planner2.acquire(technique, 8, UserProfile{}.with_expertise(0.95)).time_s;
  }
  EXPECT_LT(expert_total, novice_total);
}

TEST(MotionPlanner, FinerTargetsTakeLonger) {
  // The closed-loop Fitts property: halving target width (more entries
  // on the same channel) raises acquisition time — narrow targets both
  // lengthen the planned movement and multiply correction attempts.
  // (Amplitude matters too, but for an absolute channel the correction
  // loop dominates, so width is the robust observable.)
  double coarse_total = 0.0, fine_total = 0.0;
  for (int i = 0; i < 20; ++i) {
    LinearAbsolute coarse;
    coarse.reset(5, 0);  // slot width 2.0 u
    MotionPlanner planner(sim::Rng(300 + i));
    coarse_total += planner.acquire(coarse, 3, UserProfile::average()).time_s;
    LinearAbsolute fine;
    fine.reset(40, 0);  // slot width 0.25 u
    MotionPlanner planner2(sim::Rng(300 + i));
    fine_total += planner2.acquire(fine, 30, UserProfile::average()).time_s;
  }
  EXPECT_GT(fine_total, coarse_total * 1.2);
}

TEST(MotionPlanner, DeterministicForSeed) {
  LinearAbsolute t1, t2;
  t1.reset(10, 0);
  t2.reset(10, 0);
  MotionPlanner p1(sim::Rng(7)), p2(sim::Rng(7));
  const auto o1 = p1.acquire(t1, 5, UserProfile::average());
  const auto o2 = p2.acquire(t2, 5, UserProfile::average());
  EXPECT_DOUBLE_EQ(o1.time_s, o2.time_s);
  EXPECT_EQ(o1.corrective_movements, o2.corrective_movements);
}

}  // namespace
}  // namespace distscroll::human
