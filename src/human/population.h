// Sampled participant populations for fleet-scale studies.
//
// The paper's study pool was nine people; population-level claims
// (island reachability, selection time, error rate across gloves and
// skill levels) need orders of magnitude more. A PopulationSpec
// describes the distribution the fleet engine samples one participant
// per index from: starting expertise and practice history (folded
// through human::practice, the rule the Section 6 device study uses),
// glove mix, tremor severity/frequency, and arm reach.
//
// Determinism: sample_participant() consumes its Rng in a FIXED draw
// order (documented below) — the stream is forked per participant index
// by the fleet engine, so participant k's profile is a pure function of
// (base_seed, k, spec) regardless of threads or scheduling.
//
// Arm reach is quantised onto kReachPresetsCm, a small set of
// "calibration presets": how a real deployment would ship device range
// presets rather than per-user continuous calibration. The presets are
// part of every fleet result (reach_counts, island tables), so changing
// them changes the fleet bytes.
#pragma once

#include <array>

#include "human/user_profile.h"
#include "sim/random.h"

namespace distscroll::human {

struct PopulationSpec {
  // --- skill & practice ----------------------------------------------------
  double expertise_mean = 0.35;
  double expertise_sd = 0.18;
  double learning_rate_mean = 0.35;  // per-block saturating gain (practice())
  double learning_rate_sd = 0.10;
  /// Practice blocks already completed before measurement, uniform in
  /// [0, max_practice_blocks].
  int max_practice_blocks = 4;

  // --- glove mix (weights, any positive scale) -----------------------------
  double glove_none_w = 0.70;
  double glove_thin_w = 0.15;
  double glove_thick_w = 0.15;

  // --- motor variation -----------------------------------------------------
  /// Tremor amplitude multiplier is lognormal: exp(N(0, sigma)).
  double tremor_severity_sigma = 0.35;
  double tremor_freq_mean_hz = 9.0;
  double tremor_freq_sd_hz = 0.8;

  // --- anthropometrics -----------------------------------------------------
  /// Comfortable far reach of the device from the body (cm), quantised
  /// onto kReachPresetsCm after clamping to the presets' span.
  double arm_reach_mean_cm = 30.0;
  double arm_reach_sd_cm = 4.0;
};

/// Calibrated device range presets the sampled reach snaps to (see the
/// header comment on why reach is discrete).
inline constexpr std::array<double, 4> kReachPresetsCm = {24.0, 27.0, 30.0, 33.0};

struct SampledParticipant {
  UserProfile profile;
  double learning_rate = 0.35;
  int practice_blocks = 0;
  /// Effective expertise after practice (what profile was derived with).
  double effective_expertise = 0.35;
  double reach_far_cm = 30.0;  // one of kReachPresetsCm
};

/// Draw order (fixed, part of the determinism contract): expertise,
/// learning rate, practice blocks, glove, tremor severity, tremor
/// frequency, arm reach.
[[nodiscard]] SampledParticipant sample_participant(const PopulationSpec& spec, sim::Rng rng);

}  // namespace distscroll::human
