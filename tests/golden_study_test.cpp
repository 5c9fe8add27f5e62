// Golden study digests: pins the scalar run_trials() output of a small
// Q1-style grid (five techniques x {no gloves, thick gloves}) and the
// FleetAggregates bytes of a 64-participant run_fleet(), bit-exactly.
//
// The committed CSVs round their figures, and the bit-identity tests
// only compare two paths with each other, so a change that moves
// an overshoot count in a handful of trials can pass every other test.
// These digests catch it. A change that moves study outputs on purpose
// updates the constants here and says why; scripts/regen_golden.sh runs
// this binary with DISTSCROLL_REGEN_GOLDEN=1, which prints each digest.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "baselines/button_scroll.h"
#include "baselines/distance_scroll.h"
#include "baselines/radial_scroll.h"
#include "baselines/tilt_scroll.h"
#include "baselines/wheel_scroll.h"
#include "study/fleet_study.h"
#include "study/task.h"
#include "study/trial.h"

namespace distscroll::study {
namespace {

class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001B3ull;
    }
  }
  void text(const std::string& s) { bytes(s.data(), s.size()); }
  [[nodiscard]] std::uint64_t hash() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ull;
};

/// Under DISTSCROLL_REGEN_GOLDEN=1, print `digest` in the form the
/// constants below are written in.
std::uint64_t reported(const char* name, std::uint64_t digest) {
  const char* env = std::getenv("DISTSCROLL_REGEN_GOLDEN");
  if (env != nullptr && env[0] != '\0' && env[0] != '0') {
    std::printf("golden_study %-12s 0x%016" PRIx64 "\n", name, digest);
  }
  return digest;
}

/// Every TrialRecord field, doubles as exact hex floats, so the digest
/// does not depend on struct padding or on decimal rounding.
std::string exact(const TrialRecord& r) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%d %a %d %d %d %a %zu %zu\n", r.outcome.success ? 1 : 0,
                r.outcome.time_s, r.outcome.corrective_movements, r.outcome.overshoots,
                r.outcome.wrong_selections, r.outcome.id_bits, r.level_size, r.scroll_distance);
  return buf;
}

std::unique_ptr<baselines::ScrollTechnique> make_technique(int index, sim::Rng rng) {
  switch (index) {
    case 0:
      return std::make_unique<baselines::DistanceScroll>(baselines::DistanceScroll::Config{}, rng);
    case 1:
      return std::make_unique<baselines::TiltScroll>(baselines::TiltScroll::Config{}, rng);
    case 2:
      return std::make_unique<baselines::WheelScroll>(baselines::WheelScroll::Config{}, rng);
    case 3:
      return std::make_unique<baselines::ButtonScroll>();
    default:
      return std::make_unique<baselines::RadialScroll>();
  }
}

/// One digest per technique over both glove conditions, 4 participants
/// x 30 trials each on a 20-entry menu, with the bench's fork layout:
/// fork(1) technique, fork(2) tasks, fork(3) trials.
std::uint64_t technique_digest(int technique) {
  Fnv1a digest;
  const human::Glove gloves[] = {human::Glove::None, human::Glove::Thick};
  for (std::size_t g = 0; g < 2; ++g) {
    for (std::size_t participant = 0; participant < 4; ++participant) {
      const sim::Rng rng =
          sim::Rng(0x601D).fork(static_cast<std::uint64_t>(technique) * 100 + g * 10 + participant);
      auto t = make_technique(technique, rng.fork(1));
      const auto profile = human::UserProfile::average()
                               .with_expertise(0.25 + 0.1 * static_cast<double>(participant))
                               .with_glove(gloves[g]);
      sim::Rng task_rng = rng.fork(2);
      const auto tasks = random_tasks(task_rng, 20, 30);
      for (const TrialRecord& r : run_trials(*t, tasks, profile, rng.fork(3))) {
        digest.text(exact(r));
      }
    }
  }
  return digest.hash();
}

TEST(GoldenStudy, ScalarTrialRecordsDigest) {
  // ButtonScroll draws no normal, so its digest predates the ziggurat
  // sampler; the other four were re-blessed with it.
  EXPECT_EQ(reported("DistScroll", technique_digest(0)), 0xd63e60e7db99c19eull);
  EXPECT_EQ(reported("TiltScroll", technique_digest(1)), 0xbf15a78311e148feull);
  EXPECT_EQ(reported("YoYoWheel", technique_digest(2)), 0x89dc17b6057a8f9bull);
  EXPECT_EQ(reported("ButtonScroll", technique_digest(3)), 0x1793301148318e85ull);
  EXPECT_EQ(reported("RadialScroll", technique_digest(4)), 0x3eb97aa4e417f54dull);
}

std::uint64_t fleet_digest() {
  FleetStudyConfig config;
  config.participants = 64;
  config.trials_per_participant = 4;
  config.menu_size = 40;
  config.base_seed = 0x601D;
  config.chunk = 16;
  config.threads = 1;
  const FleetRunResult result = run_fleet(config);
  EXPECT_TRUE(result.complete);
  const std::vector<std::uint8_t> bytes = result.aggregates.to_bytes();
  Fnv1a digest;
  digest.bytes(bytes.data(), bytes.size());
  return digest.hash();
}

TEST(GoldenStudy, FleetAggregateBytes) {
  EXPECT_EQ(reported("fleet", fleet_digest()), 0x6bdee4a5c767fe1full);
}

}  // namespace
}  // namespace distscroll::study
