#include "human/population.h"

#include <algorithm>
#include <cmath>

namespace distscroll::human {

SampledParticipant sample_participant(const PopulationSpec& spec, sim::Rng rng) {
  SampledParticipant out;

  // Draw order is fixed — see the header. Every draw happens even when a
  // weight later discards its effect, so the stream layout never depends
  // on spec values.
  const double start_expertise =
      std::clamp(rng.gaussian(spec.expertise_mean, spec.expertise_sd), 0.0, 1.0);
  out.learning_rate =
      std::clamp(rng.gaussian(spec.learning_rate_mean, spec.learning_rate_sd), 0.05, 0.80);
  out.practice_blocks = rng.uniform_int(0, std::max(0, spec.max_practice_blocks));
  const double glove_u = rng.uniform01();
  const double severity = std::exp(rng.gaussian(0.0, spec.tremor_severity_sigma));
  const double freq_hz =
      std::clamp(rng.gaussian(spec.tremor_freq_mean_hz, spec.tremor_freq_sd_hz), 6.0, 12.0);
  const double reach_cm = rng.gaussian(spec.arm_reach_mean_cm, spec.arm_reach_sd_cm);

  // Practice: the rule the device study applies between blocks, so
  // "k practiced blocks" means exactly k study blocks' worth of learning.
  out.effective_expertise =
      std::clamp(practice(start_expertise, out.learning_rate, out.practice_blocks), 0.0, 1.0);

  // Glove mix by normalised cumulative weights.
  const double none_w = std::max(0.0, spec.glove_none_w);
  const double thin_w = std::max(0.0, spec.glove_thin_w);
  const double thick_w = std::max(0.0, spec.glove_thick_w);
  const double total_w = none_w + thin_w + thick_w;
  Glove glove = Glove::None;
  if (total_w > 0.0) {
    const double u = glove_u * total_w;
    glove = u < none_w ? Glove::None : (u < none_w + thin_w ? Glove::Thin : Glove::Thick);
  }

  out.profile = UserProfile{}.with_expertise(out.effective_expertise).with_glove(glove);
  out.profile.tremor.amplitude_cm *= severity;
  out.profile.tremor.frequency_hz = freq_hz;

  // Snap reach to the nearest calibration preset (see header).
  double best = kReachPresetsCm.front();
  for (const double preset : kReachPresetsCm) {
    if (std::abs(preset - reach_cm) < std::abs(best - reach_cm)) best = preset;
  }
  out.reach_far_cm = best;
  return out;
}

}  // namespace distscroll::human
