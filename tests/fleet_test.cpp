// Streaming fleet engine: online aggregates, the deterministic quantile
// sketch, checkpoint framing, population sampling, and the end-to-end
// determinism contract — merged results bit-identical at any thread
// count, equal to a per-participant reference loop, and full run ==
// checkpoint + resume down to the serialised bytes (DESIGN.md §12).
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "baselines/distance_scroll.h"
#include "human/population.h"
#include "sim/random.h"
#include "study/fleet_engine.h"
#include "study/fleet_study.h"
#include "study/task.h"
#include "study/trial.h"
#include "util/alloc_guard.h"
#include "util/checkpoint_io.h"
#include "util/online_stats.h"
#include "util/quantile_sketch.h"

namespace distscroll {
namespace {

// --- OnlineMoments --------------------------------------------------------

TEST(OnlineMoments, MatchesTwoPassStatistics) {
  sim::Rng rng(7);
  std::vector<double> values(5000);
  util::OnlineMoments moments;
  for (double& v : values) {
    v = rng.gaussian(3.0, 2.0);
    moments.add(v);
  }
  double mean = 0.0;
  for (const double v : values) mean += v;
  mean /= static_cast<double>(values.size());
  double m2 = 0.0;
  for (const double v : values) m2 += (v - mean) * (v - mean);
  const double variance = m2 / static_cast<double>(values.size() - 1);

  EXPECT_EQ(moments.count(), values.size());
  EXPECT_NEAR(moments.mean(), mean, 1e-9);
  EXPECT_NEAR(moments.variance(), variance, 1e-6);
  EXPECT_DOUBLE_EQ(moments.min(), *std::min_element(values.begin(), values.end()));
  EXPECT_DOUBLE_EQ(moments.max(), *std::max_element(values.begin(), values.end()));
}

TEST(OnlineMoments, MergeIsDeterministicForAFixedOrder) {
  // Two independent executions of the same fold-then-merge plan must be
  // bit-identical (the fleet contract); chunked-merged vs straight-fold
  // agree only approximately (FP reassociation).
  sim::Rng rng(11);
  std::vector<double> values(4096);
  for (double& v : values) v = rng.uniform(0.0, 10.0);

  auto chunked = [&](std::size_t chunk_size) {
    util::OnlineMoments global;
    for (std::size_t first = 0; first < values.size(); first += chunk_size) {
      util::OnlineMoments chunk;
      const std::size_t end = std::min(values.size(), first + chunk_size);
      for (std::size_t i = first; i < end; ++i) chunk.add(values[i]);
      global.merge(chunk);
    }
    return global;
  };

  const auto a = chunked(64);
  const auto b = chunked(64);
  EXPECT_EQ(a, b);  // defaulted operator== on raw state: bit-identity

  util::OnlineMoments straight;
  for (const double v : values) straight.add(v);
  EXPECT_EQ(a.count(), straight.count());
  EXPECT_NEAR(a.mean(), straight.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), straight.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), straight.min());
  EXPECT_DOUBLE_EQ(a.max(), straight.max());
}

TEST(OnlineMoments, MergeWithEmptySidesIsExact) {
  util::OnlineMoments a, b, empty;
  a.add(1.0);
  a.add(2.0);
  util::OnlineMoments merged = a;
  merged.merge(empty);
  EXPECT_EQ(merged, a);
  empty.merge(a);  // merge INTO empty adopts the other side verbatim
  EXPECT_EQ(empty, a);
  EXPECT_EQ(b.count(), 0u);
  EXPECT_EQ(b.mean(), 0.0);
}

// --- QuantileSketch -------------------------------------------------------

TEST(QuantileSketch, QuantilesTrackUniformDistribution) {
  util::QuantileSketch sketch;
  sim::Rng rng(23);
  const std::size_t n = 200000;
  for (std::size_t i = 0; i < n; ++i) sketch.add(rng.uniform01());
  EXPECT_EQ(sketch.count(), n);
  // Rank error O(1/kCapacity); 2% absolute is comfortably loose.
  for (const double p : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    EXPECT_NEAR(sketch.quantile(p), p, 0.02) << "p=" << p;
  }
  EXPECT_LE(sketch.quantile(0.0), sketch.quantile(1.0));
}

TEST(QuantileSketch, ChunkedMergePlanIsBitDeterministic) {
  sim::Rng rng(31);
  std::vector<double> values(50000);
  for (double& v : values) v = rng.exponential(2.0);

  auto folded = [&] {
    util::QuantileSketch global;
    for (std::size_t first = 0; first < values.size(); first += 1000) {
      util::QuantileSketch chunk;
      const std::size_t end = std::min(values.size(), first + 1000);
      for (std::size_t i = first; i < end; ++i) chunk.add(values[i]);
      global.merge(chunk);
    }
    return global;
  };
  const auto a = folded();
  const auto b = folded();
  EXPECT_EQ(a, b);

  std::vector<std::uint8_t> bytes_a, bytes_b;
  util::ByteWriter wa(bytes_a), wb(bytes_b);
  a.serialize(wa);
  b.serialize(wb);
  EXPECT_EQ(bytes_a, bytes_b);
}

TEST(QuantileSketch, SerializeRoundTripsExactly) {
  util::QuantileSketch sketch;
  sim::Rng rng(37);
  for (int i = 0; i < 10000; ++i) sketch.add(rng.gaussian(5.0, 1.5));

  std::vector<std::uint8_t> bytes;
  util::ByteWriter writer(bytes);
  sketch.serialize(writer);

  util::QuantileSketch restored;
  util::ByteReader reader(bytes);
  ASSERT_TRUE(restored.deserialize(reader));
  EXPECT_TRUE(reader.exhausted());
  EXPECT_EQ(restored, sketch);
  EXPECT_DOUBLE_EQ(restored.quantile(0.5), sketch.quantile(0.5));

  // Truncated input is rejected.
  std::vector<std::uint8_t> truncated(bytes.begin(), bytes.begin() + bytes.size() / 2);
  util::ByteReader bad(truncated);
  util::QuantileSketch scratch;
  EXPECT_FALSE(scratch.deserialize(bad));
}

/// FNV-1a over a sketch's serialised bytes followed by the bit patterns
/// of a spread of quantiles.
std::uint64_t sketch_digest(const util::QuantileSketch& sketch) {
  std::vector<std::uint8_t> bytes;
  util::ByteWriter writer(bytes);
  sketch.serialize(writer);
  for (const double p : {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    writer.f64(sketch.quantile(p));
  }
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) {
    hash ^= b;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// A sketch whose levels 0..kLevels-1 each hold `resident` values:
/// kCapacity - 1 is the fullest state add() and merge() leave behind,
/// 2 * kCapacity the fullest deserialize() accepts.
template <std::size_t kLevels, std::uint32_t kResident>
util::QuantileSketch crafted_sketch(std::uint64_t seed) {
  std::vector<std::uint8_t> bytes;
  util::ByteWriter writer(bytes);
  std::uint64_t count = 0;
  for (std::size_t l = 0; l < kLevels; ++l) count += std::uint64_t{kResident} << l;
  writer.u64(count);
  sim::Rng rng(seed);
  for (std::size_t l = 0; l < util::QuantileSketch::kMaxLevels; ++l) {
    writer.u8(static_cast<std::uint8_t>(l % 2));
    const std::uint32_t size = l < kLevels ? kResident : 0;
    writer.u32(size);
    for (std::uint32_t i = 0; i < size; ++i) writer.f64(rng.uniform01() * static_cast<double>(l + 1));
  }
  util::QuantileSketch sketch;
  util::ByteReader reader(bytes);
  EXPECT_TRUE(sketch.deserialize(reader));
  return sketch;
}

util::QuantileSketch near_full_sketch(std::uint64_t seed) {
  return crafted_sketch<6, util::QuantileSketch::kCapacity - 1>(seed);
}

TEST(QuantileSketch, AddMergeClearPlanIsPinned) {
  // The sketch's state — hence its checkpoint bytes and quantiles — is
  // a pure function of the add/merge/clear sequence, whatever the
  // storage layout. Merging two near-full sketches concatenates 254
  // values at level 0, promotes 127 of them, and so puts 381 values
  // (past 2*kCapacity) into level 1 before it compacts.
  util::QuantileSketch global = near_full_sketch(101);
  global.merge(near_full_sketch(102));

  sim::Rng rng(103);
  util::QuantileSketch gaussian;
  for (int i = 0; i < 5000; ++i) gaussian.add(rng.gaussian(2.0, 0.7));
  global.merge(gaussian);

  // Signed zeros compare equal, so the bytes also pin the order in which
  // ties reach each compaction's sort.
  util::QuantileSketch reused;
  for (int i = 0; i < 300; ++i) reused.add(rng.uniform01());
  reused.clear();
  for (int i = 0; i < 777; ++i) {
    reused.add(i % 3 == 0 ? -0.0 : (i % 3 == 1 ? 0.0 : rng.uniform01() - 0.5));
  }
  global.merge(reused);
  for (int i = 0; i < 1000; ++i) global.add(rng.exponential(1.5));

  // The fleet's shape: chunk sketches merged in order into a global one.
  util::QuantileSketch chunked;
  util::QuantileSketch chunk;
  for (int c = 0; c < 20; ++c) {
    chunk.clear();
    for (int i = 0; i < 1000; ++i) chunk.add(rng.exponential(2.0));
    chunked.merge(chunk);
  }
  global.merge(chunked);
  global.merge(near_full_sketch(104));

  EXPECT_EQ(global.count(), 2 * 8001u + 5000u + 777u + 1000u + 20000u + 8001u);
  EXPECT_EQ(sketch_digest(global), 0x34ffdcaf3636bc94ULL) << std::hex << sketch_digest(global);
  EXPECT_EQ(sketch_digest(chunked), 0xd6d0a6d6d7bf04a0ULL) << std::hex << sketch_digest(chunked);

  // deserialize() accepts up to 2*kCapacity values per level, more than
  // add() and merge() ever leave resident; both keep working from there.
  // One add cascades 384, 448 and 480 values through levels 1..3.
  util::QuantileSketch overfull = crafted_sketch<4, 2 * util::QuantileSketch::kCapacity>(105);
  for (int i = 0; i < 300; ++i) overfull.add(rng.uniform01());
  EXPECT_EQ(sketch_digest(overfull), 0x09a61db59c1874eeULL) << std::hex << sketch_digest(overfull);
  util::QuantileSketch merged = crafted_sketch<4, 2 * util::QuantileSketch::kCapacity>(106);
  merged.merge(crafted_sketch<4, 2 * util::QuantileSketch::kCapacity>(107));
  merged.merge(overfull);
  EXPECT_EQ(sketch_digest(merged), 0x93755b85b68c121dULL) << std::hex << sketch_digest(merged);
}

TEST(QuantileSketch, ClearedSketchSerialisesLikeFresh) {
  util::QuantileSketch used;
  sim::Rng rng(41);
  for (int i = 0; i < 5000; ++i) used.add(rng.uniform01());
  used.clear();
  util::QuantileSketch fresh;
  std::vector<std::uint8_t> a, b;
  util::ByteWriter wa(a), wb(b);
  used.serialize(wa);
  fresh.serialize(wb);
  EXPECT_EQ(a, b);
}

TEST(QuantileSketch, AddIsAllocationFreeWhenWarm) {
  if (!util::alloc_interposer_linked()) GTEST_SKIP() << "sanitizer build: interposer absent";
  util::QuantileSketch sketch;
  sim::Rng rng(43);
  // Warm: drive past several compaction cascades.
  for (int i = 0; i < 4096; ++i) sketch.add(rng.uniform01());
  DS_ASSERT_NO_ALLOC {
    for (int i = 0; i < 4096; ++i) sketch.add(rng.uniform01());
  }
}

// --- checkpoint framing ---------------------------------------------------

TEST(CheckpointIo, RoundTripAndTamperDetection) {
  const std::string path = "fleet_test_frame.ckpt";
  std::vector<std::uint8_t> payload;
  util::ByteWriter writer(payload);
  writer.u64(0xDEADBEEFULL);
  writer.f64(3.25);

  ASSERT_EQ(util::write_checkpoint_file(path, 0x1234, 7, payload), util::CheckpointStatus::Ok);
  std::vector<std::uint8_t> read_back;
  ASSERT_EQ(util::read_checkpoint_file(path, 0x1234, 7, read_back), util::CheckpointStatus::Ok);
  EXPECT_EQ(read_back, payload);

  EXPECT_EQ(util::read_checkpoint_file(path, 0x9999, 7, read_back),
            util::CheckpointStatus::BadMagic);
  EXPECT_EQ(util::read_checkpoint_file(path, 0x1234, 8, read_back),
            util::CheckpointStatus::BadVersion);
  // Missing (nothing to resume) is distinct from IoError (a file that
  // exists but cannot be read — here, a directory).
  EXPECT_EQ(util::read_checkpoint_file("does_not_exist.ckpt", 0x1234, 7, read_back),
            util::CheckpointStatus::Missing);
  EXPECT_EQ(util::read_checkpoint_file(".", 0x1234, 7, read_back),
            util::CheckpointStatus::IoError);

  // Flip one payload byte on disk: CRC must catch it.
  {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(18);
    char byte = 0;
    file.seekg(18);
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    file.seekp(18);
    file.write(&byte, 1);
  }
  EXPECT_EQ(util::read_checkpoint_file(path, 0x1234, 7, read_back),
            util::CheckpointStatus::Corrupt);
  std::remove(path.c_str());
}

// --- population sampling --------------------------------------------------

TEST(Population, SamplingIsAPureFunctionOfTheStream) {
  const human::PopulationSpec spec;
  const auto a = human::sample_participant(spec, sim::Rng(99).fork(5));
  const auto b = human::sample_participant(spec, sim::Rng(99).fork(5));
  EXPECT_EQ(a.profile.expertise, b.profile.expertise);
  EXPECT_EQ(a.profile.glove, b.profile.glove);
  EXPECT_EQ(a.learning_rate, b.learning_rate);
  EXPECT_EQ(a.practice_blocks, b.practice_blocks);
  EXPECT_EQ(a.reach_far_cm, b.reach_far_cm);
}

TEST(Population, DrawLayoutIndependentOfSpecValues) {
  // Changing one knob must not shift the draws of UNRELATED fields —
  // the fixed draw order is what keeps participant k stable as specs
  // evolve. Glove weights only affect the glove; reach must not move.
  human::PopulationSpec all_none;
  all_none.glove_none_w = 1.0;
  all_none.glove_thin_w = 0.0;
  all_none.glove_thick_w = 0.0;
  human::PopulationSpec all_thick;
  all_thick.glove_none_w = 0.0;
  all_thick.glove_thin_w = 0.0;
  all_thick.glove_thick_w = 1.0;
  for (std::uint64_t k = 0; k < 64; ++k) {
    const auto a = human::sample_participant(all_none, sim::Rng(1).fork(k));
    const auto b = human::sample_participant(all_thick, sim::Rng(1).fork(k));
    EXPECT_EQ(a.profile.glove, human::Glove::None);
    EXPECT_EQ(b.profile.glove, human::Glove::Thick);
    EXPECT_EQ(a.reach_far_cm, b.reach_far_cm) << "reach drew from a shifted stream";
    EXPECT_EQ(a.practice_blocks, b.practice_blocks);
  }
}

TEST(Population, ReachSnapsToPresets) {
  const human::PopulationSpec spec;
  std::set<double> seen;
  for (std::uint64_t k = 0; k < 500; ++k) {
    const auto p = human::sample_participant(spec, sim::Rng(3).fork(k));
    seen.insert(p.reach_far_cm);
    EXPECT_TRUE(std::find(human::kReachPresetsCm.begin(), human::kReachPresetsCm.end(),
                          p.reach_far_cm) != human::kReachPresetsCm.end());
  }
  EXPECT_GT(seen.size(), 1u) << "population collapsed onto a single preset";
}

TEST(Population, PracticeAppliesTheSessionLearningRule) {
  human::PopulationSpec spec;
  spec.expertise_sd = 0.0;  // exact mean, no draw consumed for sigma=0
  spec.learning_rate_sd = 0.0;
  const auto p = human::sample_participant(spec, sim::Rng(17).fork(0));
  double expected = spec.expertise_mean;
  for (int i = 0; i < p.practice_blocks; ++i) {
    expected += spec.learning_rate_mean * (1.0 - expected);
  }
  EXPECT_DOUBLE_EQ(p.effective_expertise, std::clamp(expected, 0.0, 1.0));
}

// --- RNG fork-of-fork independence ----------------------------------------

TEST(FleetRng, ForkChainsDoNotCollideAcrossTenThousandParticipants) {
  // Participant k uses root.fork(k), and inside it the cell decomposition
  // fork(0..3). A collision between ANY two of those streams would
  // correlate supposedly-independent participants. First outputs of
  // 10k x (parent + 4 children) must all be distinct.
  const sim::Rng root(0xD157F1EE);
  std::set<std::uint64_t> seen;
  const std::uint64_t participants = 10000;
  for (std::uint64_t k = 0; k < participants; ++k) {
    const sim::Rng participant = root.fork(k);
    sim::Rng parent = participant;
    ASSERT_TRUE(seen.insert(parent.next_u64()).second) << "parent stream collision at " << k;
    for (std::uint64_t tag = 0; tag < 4; ++tag) {
      sim::Rng child = participant.fork(tag);
      ASSERT_TRUE(seen.insert(child.next_u64()).second)
          << "child stream collision at participant " << k << " tag " << tag;
    }
  }
  EXPECT_EQ(seen.size(), participants * 5);
}

// --- FleetEngine ----------------------------------------------------------

/// Cheap synthetic aggregate for engine-level tests (no trial loop).
struct ProbeAgg {
  util::OnlineMoments moments;
  util::QuantileSketch sketch;

  void clear() {
    moments.clear();
    sketch.clear();
  }
  void merge(const ProbeAgg& other) {
    moments.merge(other.moments);
    sketch.merge(other.sketch);
  }
  friend bool operator==(const ProbeAgg&, const ProbeAgg&) = default;
};

void probe_body(std::uint64_t first, std::uint64_t count, ProbeAgg& out,
                const study::FleetEngine<ProbeAgg>& engine) {
  for (std::uint64_t k = 0; k < count; ++k) {
    sim::Rng rng = engine.participant_rng(first + k);
    for (int draw = 0; draw < 8; ++draw) {
      const double value = rng.gaussian(0.0, 1.0);
      out.moments.add(value);
      out.sketch.add(value);
    }
  }
}

TEST(FleetEngine, BitIdenticalAcrossThreadCounts) {
  auto run_at = [](std::size_t threads) {
    study::FleetConfig config;
    config.participants = 10000;
    config.threads = threads;
    config.chunk = 128;
    config.window_chunks = 8;
    config.base_seed = 77;
    study::FleetEngine<ProbeAgg> engine(config);
    ProbeAgg global;
    std::uint64_t cursor = 0;
    engine.run(global, cursor, config.participants, probe_body);
    EXPECT_EQ(cursor, config.participants);
    return global;
  };
  const ProbeAgg reference = run_at(1);
  EXPECT_EQ(reference.moments.count(), 80000u);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    EXPECT_EQ(run_at(threads), reference) << threads << " threads diverged";
  }
}

TEST(FleetEngine, StopAndContinueMatchesStraightRun) {
  study::FleetConfig config;
  config.participants = 5000;
  config.threads = 4;
  config.chunk = 64;
  config.window_chunks = 4;
  config.base_seed = 5;

  study::FleetEngine<ProbeAgg> straight_engine(config);
  ProbeAgg straight;
  std::uint64_t cursor = 0;
  straight_engine.run(straight, cursor, config.participants, probe_body);

  // Interrupt at an arbitrary (non-chunk-aligned) stop request; the
  // engine rounds the cut up to a chunk boundary and resumes exactly.
  study::FleetEngine<ProbeAgg> split_engine(config);
  ProbeAgg split;
  std::uint64_t split_cursor = 0;
  split_engine.run(split, split_cursor, 2100, probe_body);
  EXPECT_EQ(split_cursor % config.chunk, 0u);
  EXPECT_GE(split_cursor, 2100u);
  EXPECT_LT(split_cursor, 2100 + config.chunk);
  // Fresh engine (as after a process restart) finishes the run.
  study::FleetEngine<ProbeAgg> resume_engine(config);
  resume_engine.run(split, split_cursor, config.participants, probe_body);
  EXPECT_EQ(split_cursor, config.participants);
  EXPECT_EQ(split, straight);
}

TEST(FleetEngine, WindowHookFiresAtChunkAlignedCursors) {
  study::FleetConfig config;
  config.participants = 1000;
  config.threads = 1;
  config.chunk = 64;
  config.window_chunks = 4;
  study::FleetEngine<ProbeAgg> engine(config);
  ProbeAgg global;
  std::uint64_t cursor = 0;
  std::vector<std::uint64_t> cuts;
  engine.run(global, cursor, config.participants, probe_body,
             [&](const ProbeAgg&, std::uint64_t at) { cuts.push_back(at); });
  ASSERT_FALSE(cuts.empty());
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    EXPECT_EQ(cuts[i] % config.chunk, 0u);
    EXPECT_LT(cuts[i], cuts[i + 1]);
  }
  EXPECT_EQ(cuts.back(), config.participants);
}

/// ProbeAgg that counts its constructions (the engine's chunk slots).
struct CountingAgg : ProbeAgg {
  static inline int constructed = 0;
  CountingAgg() { ++constructed; }
  void merge(const CountingAgg& other) { ProbeAgg::merge(other); }
};

TEST(FleetEngine, WindowWiderThanTheRunBuildsOnlyTheSlotsItFills) {
  // 150 participants in chunks of 64: three chunks, the last partial.
  study::FleetConfig config;
  config.participants = 150;
  config.threads = 1;
  config.chunk = 64;
  config.window_chunks = 32;
  CountingAgg::constructed = 0;
  study::FleetEngine<CountingAgg> engine(config);
  EXPECT_EQ(CountingAgg::constructed, 3);
  config.participants = 0;
  CountingAgg::constructed = 0;
  study::FleetEngine<CountingAgg> empty(config);
  EXPECT_EQ(CountingAgg::constructed, 1);
}

// --- end-to-end fleet study -----------------------------------------------

study::FleetStudyConfig small_fleet() {
  study::FleetStudyConfig config;
  config.participants = 640;
  config.trials_per_participant = 2;
  config.menu_size = 20;
  config.base_seed = 0xBEEF;
  config.chunk = 64;
  config.window_chunks = 4;
  config.threads = 1;
  return config;
}

TEST(FleetStudy, MatchesPerParticipantReference) {
  // The reference: a fresh DistanceScroll + run_trials per participant,
  // with run_fleet's forks, folded in participant order and merged per
  // chunk in ascending order.
  const auto config = small_fleet();
  study::FleetAggregates expected;
  study::FleetAggregates chunk;
  const sim::Rng root(config.base_seed);
  for (std::uint64_t first = 0; first < config.participants; first += config.chunk) {
    chunk.clear();
    for (std::uint64_t k = first; k < first + config.chunk; ++k) {
      const sim::Rng rng = root.fork(k);
      const auto participant = human::sample_participant(config.population, rng.fork(0));
      baselines::DistanceScroll::Config technique_config{};
      technique_config.islands.far = util::Centimeters{participant.reach_far_cm};
      baselines::DistanceScroll technique(technique_config, rng.fork(1));
      sim::Rng task_rng = rng.fork(2);
      const auto tasks =
          study::random_tasks(task_rng, config.menu_size, config.trials_per_participant);
      chunk.fold_participant(participant);
      for (const auto& record :
           study::run_trials(technique, tasks, participant.profile, rng.fork(3))) {
        chunk.fold_trial(record);
      }
    }
    expected.merge(chunk);
  }
  const auto got = study::run_fleet(config);
  ASSERT_TRUE(got.complete);
  EXPECT_EQ(got.aggregates, expected);
  EXPECT_EQ(got.aggregates.to_bytes(), expected.to_bytes());
  EXPECT_EQ(got.aggregates.participants(), 640u);
  EXPECT_EQ(got.aggregates.trials(), 1280u);
}

TEST(FleetStudy, WindowWiderThanTheRunGivesTheSameBytes) {
  // window_chunks is not part of the result's identity: a window of 32
  // over a three-chunk run folds and merges what a window of 1 does.
  study::FleetStudyConfig config = small_fleet();
  config.participants = 150;
  config.window_chunks = 1;
  const auto narrow = study::run_fleet(config);
  config.window_chunks = 32;
  config.threads = 4;
  const auto wide = study::run_fleet(config);
  ASSERT_TRUE(narrow.complete);
  ASSERT_TRUE(wide.complete);
  EXPECT_EQ(wide.aggregates.participants(), 150u);
  EXPECT_EQ(wide.aggregates.to_bytes(), narrow.aggregates.to_bytes());
}

TEST(FleetStudy, BitIdenticalAcrossThreadCounts) {
  auto config = small_fleet();
  const auto reference = study::run_fleet(config);
  ASSERT_TRUE(reference.complete);
  const auto reference_bytes = reference.aggregates.to_bytes();
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    config.threads = threads;
    const auto result = study::run_fleet(config);
    ASSERT_TRUE(result.complete);
    EXPECT_EQ(result.aggregates.to_bytes(), reference_bytes) << threads << " threads";
  }
}

TEST(FleetStudy, CheckpointResumeIsByteIdenticalIncludingSketch) {
  const std::string path = "fleet_test_resume.ckpt";
  std::remove(path.c_str());

  const auto full = study::run_fleet(small_fleet());
  ASSERT_TRUE(full.complete);

  auto config = small_fleet();
  config.threads = 2;
  config.checkpoint_path = path;
  const auto half = study::run_fleet(config, 300);
  ASSERT_EQ(half.status, util::CheckpointStatus::Ok);
  ASSERT_FALSE(half.complete);
  EXPECT_EQ(half.cursor % config.chunk, 0u);

  config.resume = true;
  const auto resumed = study::run_fleet(config);
  ASSERT_EQ(resumed.status, util::CheckpointStatus::Ok);
  ASSERT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.resumed_from, half.cursor);
  ASSERT_TRUE(resumed.complete);
  // Byte-level identity covers every aggregate INCLUDING the sketch's
  // level buffers and parity bits.
  EXPECT_EQ(resumed.aggregates.to_bytes(), full.aggregates.to_bytes());
  EXPECT_EQ(resumed.aggregates, full.aggregates);
  std::remove(path.c_str());
}

TEST(FleetStudy, PeriodicCheckpointsLandOnWindows) {
  const std::string path = "fleet_test_periodic.ckpt";
  std::remove(path.c_str());
  auto config = small_fleet();
  config.checkpoint_path = path;
  config.checkpoint_every = 200;
  const auto result = study::run_fleet(config);
  ASSERT_TRUE(result.complete);
  // The final write leaves a checkpoint of the COMPLETE state; resuming
  // from it is a no-op run that returns the same bytes.
  config.resume = true;
  const auto noop = study::run_fleet(config);
  ASSERT_TRUE(noop.resumed);
  EXPECT_TRUE(noop.complete);
  EXPECT_EQ(noop.resumed_from, config.participants);
  EXPECT_EQ(noop.aggregates.to_bytes(), result.aggregates.to_bytes());
  std::remove(path.c_str());
}

TEST(FleetStudy, NoOpResumeWithPartialFinalChunk) {
  const std::string path = "fleet_test_partial_chunk.ckpt";
  std::remove(path.c_str());
  auto config = small_fleet();
  config.participants = 650;  // NOT a multiple of chunk (64): final chunk is partial.
  config.checkpoint_path = path;
  const auto full = study::run_fleet(config);
  ASSERT_TRUE(full.complete);
  ASSERT_EQ(full.aggregates.participants(), 650u);
  // The complete checkpoint's cursor (650) is not chunk-aligned. Resume
  // must be a no-op — flooring the cursor to a chunk index would re-fold
  // participants 640..649 into the finished aggregate and silently
  // overwrite the checkpoint with the double-counted state.
  config.resume = true;
  const auto noop = study::run_fleet(config);
  ASSERT_EQ(noop.status, util::CheckpointStatus::Ok);
  ASSERT_TRUE(noop.resumed);
  EXPECT_TRUE(noop.complete);
  EXPECT_EQ(noop.resumed_from, 650u);
  EXPECT_EQ(noop.aggregates.participants(), 650u);
  EXPECT_EQ(noop.aggregates.to_bytes(), full.aggregates.to_bytes());
  std::remove(path.c_str());
}

TEST(FleetStudy, CorruptOrForeignCheckpointIsRejected) {
  const std::string path = "fleet_test_reject.ckpt";
  std::remove(path.c_str());
  auto config = small_fleet();
  config.checkpoint_path = path;
  (void)study::run_fleet(config, 200);

  // Different seed: intact file, wrong identity -> Mismatch, run aborts.
  auto other = config;
  other.base_seed = 0xFEED;
  other.resume = true;
  const auto mismatch = study::run_fleet(other);
  EXPECT_EQ(mismatch.status, util::CheckpointStatus::Mismatch);
  EXPECT_EQ(mismatch.cursor, 0u);

  // Flip a byte: CRC failure -> Corrupt, run aborts.
  {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(40);
    char byte = 0;
    file.seekg(40);
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x01);
    file.seekp(40);
    file.write(&byte, 1);
  }
  config.resume = true;
  const auto corrupt = study::run_fleet(config);
  EXPECT_EQ(corrupt.status, util::CheckpointStatus::Corrupt);

  // Missing file with --resume semantics: fresh start, not an error.
  std::remove(path.c_str());
  const auto fresh = study::run_fleet(config);
  EXPECT_EQ(fresh.status, util::CheckpointStatus::Ok);
  EXPECT_FALSE(fresh.resumed);
  EXPECT_TRUE(fresh.complete);
  std::remove(path.c_str());
}

TEST(FleetStudy, StaleVersionCheckpointIsRefused) {
  // Version 1 files were written under the Box–Muller normal stream.
  // Resumed under the ziggurat stream they would fold two streams into
  // aggregates that match neither full run, so the version check must
  // refuse them before the identity block is even read.
  const std::string path = "fleet_test_stale_version.ckpt";
  std::remove(path.c_str());
  auto config = small_fleet();
  config.checkpoint_path = path;
  ASSERT_EQ(study::run_fleet(config, 200).status, util::CheckpointStatus::Ok);
  // The same payload, re-framed as version 1: an intact file, CRC and all.
  std::vector<std::uint8_t> payload;
  ASSERT_EQ(util::read_checkpoint_file(path, study::kFleetCheckpointMagic,
                                       study::kFleetCheckpointVersion, payload),
            util::CheckpointStatus::Ok);
  ASSERT_EQ(util::write_checkpoint_file(path, study::kFleetCheckpointMagic, 1, payload),
            util::CheckpointStatus::Ok);

  config.resume = true;
  const auto stale = study::run_fleet(config);
  EXPECT_EQ(stale.status, util::CheckpointStatus::BadVersion);
  EXPECT_EQ(stale.cursor, 0u);
  EXPECT_FALSE(stale.resumed);

  const std::string cmd = std::string(DS_FLEET_RUN_BIN) +
                          " --participants 640 --trials 2 --menu 20 --chunk 64 --checkpoint " +
                          path + " --resume >/dev/null 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  const int status = pclose(pipe);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 1) << "fleet_run must exit kExitFail on a stale checkpoint";
  // Neither run overwrote the refused file.
  EXPECT_EQ(util::read_checkpoint_file(path, study::kFleetCheckpointMagic, 1, payload),
            util::CheckpointStatus::Ok);
  std::remove(path.c_str());
}

TEST(FleetStudy, WarmFoldPathIsAllocationFree) {
  if (!util::alloc_interposer_linked()) GTEST_SKIP() << "sanitizer build: interposer absent";
  study::FleetAggregates agg;
  const human::PopulationSpec spec;
  // Warm the sketch and histogram, then pin the per-participant fold.
  study::TrialRecord record;
  record.outcome.success = true;
  record.outcome.id_bits = 3.0;
  for (int i = 0; i < 2048; ++i) {
    record.outcome.time_s = 0.5 + 0.001 * i;
    agg.fold_trial(record);
  }
  const auto participant = human::sample_participant(spec, sim::Rng(1).fork(0));
  DS_ASSERT_NO_ALLOC {
    for (int i = 0; i < 2048; ++i) {
      agg.fold_participant(participant);
      record.outcome.time_s = 1.0 + 0.001 * i;
      agg.fold_trial(record);
    }
  }
}

TEST(FleetStudy, AggregatesSerializeRoundTrip) {
  const auto result = study::run_fleet(small_fleet());
  ASSERT_TRUE(result.complete);
  const auto bytes = result.aggregates.to_bytes();
  study::FleetAggregates restored;
  util::ByteReader reader(bytes);
  ASSERT_TRUE(restored.deserialize(reader));
  EXPECT_TRUE(reader.exhausted());
  EXPECT_EQ(restored, result.aggregates);
  EXPECT_EQ(restored.to_bytes(), bytes);
}

}  // namespace
}  // namespace distscroll
