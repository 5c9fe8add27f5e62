#include "study/fleet_study.h"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "baselines/distance_scroll.h"
#include "study/batch_trials.h"
#include "study/fleet_engine.h"
#include "study/task.h"
#include "util/hot_path.h"

namespace distscroll::study {
namespace {

// Trial times run tenths of a second to tens of seconds; 16 log₂
// buckets from 0.125 s span [0, ~2000 s) with the timeout tail folded
// into the last bucket.
constexpr obs::Histogram::Config kTimeHistConfig{0.125, 1.0, "s"};

void serialize_moments(util::ByteWriter& out, const util::OnlineMoments& m) {
  out.u64(m.count());
  out.f64(m.raw_mean());
  out.f64(m.raw_m2());
  out.f64(m.min());
  out.f64(m.max());
}

[[nodiscard]] bool deserialize_moments(util::ByteReader& in, util::OnlineMoments& m) {
  std::uint64_t count = 0;
  double mean = 0.0, m2 = 0.0, min = 0.0, max = 0.0;
  if (!in.u64(count) || !in.f64(mean) || !in.f64(m2) || !in.f64(min) || !in.f64(max)) {
    return false;
  }
  m.restore(count, mean, m2, min, max);
  return true;
}

/// The checkpoint identity block: every input the folded result is a
/// function of (population spec doubles compare BIT-exactly — a spec
/// that differs in the 17th digit is a different study).
void write_identity(util::ByteWriter& out, const FleetStudyConfig& config) {
  out.u64(config.base_seed);
  out.u64(config.participants);
  out.u64(config.chunk);
  out.u32(config.trials_per_participant);
  out.u32(config.menu_size);
  const human::PopulationSpec& s = config.population;
  out.f64(s.expertise_mean);
  out.f64(s.expertise_sd);
  out.f64(s.learning_rate_mean);
  out.f64(s.learning_rate_sd);
  out.u32(static_cast<std::uint32_t>(s.max_practice_blocks));
  out.f64(s.glove_none_w);
  out.f64(s.glove_thin_w);
  out.f64(s.glove_thick_w);
  out.f64(s.tremor_severity_sigma);
  out.f64(s.tremor_freq_mean_hz);
  out.f64(s.tremor_freq_sd_hz);
  out.f64(s.arm_reach_mean_cm);
  out.f64(s.arm_reach_sd_cm);
}

[[nodiscard]] baselines::DistanceScroll::Config technique_config(
    const human::SampledParticipant& participant) {
  baselines::DistanceScroll::Config config{};
  config.islands.far = util::Centimeters{participant.reach_far_cm};
  return config;
}

}  // namespace

FleetAggregates::FleetAggregates() : time_hist_(kTimeHistConfig) {}

// The warm per-participant fold path: every instrument below has
// pre-reserved capacity (sketch buffers, inline histogram buckets, POD
// moments), so folding is allocation-free — pinned statically here and
// empirically by the DS_ASSERT_NO_ALLOC scope in tests/fleet_test.cpp.
DS_HOT_BEGIN

void FleetAggregates::fold_participant(const human::SampledParticipant& participant) {
  ++participants_;
  expertise_.add(participant.effective_expertise);
  glove_counts_[static_cast<std::size_t>(participant.profile.glove)] += 1;
  for (std::size_t i = 0; i < human::kReachPresetsCm.size(); ++i) {
    if (participant.reach_far_cm == human::kReachPresetsCm[i]) {
      reach_counts_[i] += 1;
      break;
    }
  }
}

void FleetAggregates::fold_trial(const TrialRecord& record) {
  ++trials_;
  wrong_selections_ += static_cast<std::uint64_t>(record.outcome.wrong_selections);
  overshoots_ += static_cast<std::uint64_t>(record.outcome.overshoots);
  corrective_movements_ += static_cast<std::uint64_t>(record.outcome.corrective_movements);
  if (!record.outcome.success) return;
  ++successes_;
  time_s_.add(record.outcome.time_s);
  if (record.outcome.time_s > 0.0) {
    throughput_.add(record.outcome.id_bits / record.outcome.time_s);
  }
  time_hist_.record(record.outcome.time_s);
  time_sketch_.add(record.outcome.time_s);
}

DS_HOT_END

void FleetAggregates::merge(const FleetAggregates& other) {
  participants_ += other.participants_;
  for (std::size_t i = 0; i < glove_counts_.size(); ++i) {
    glove_counts_[i] += other.glove_counts_[i];
  }
  for (std::size_t i = 0; i < reach_counts_.size(); ++i) {
    reach_counts_[i] += other.reach_counts_[i];
  }
  expertise_.merge(other.expertise_);
  trials_ += other.trials_;
  successes_ += other.successes_;
  wrong_selections_ += other.wrong_selections_;
  overshoots_ += other.overshoots_;
  corrective_movements_ += other.corrective_movements_;
  time_s_.merge(other.time_s_);
  throughput_.merge(other.throughput_);
  time_hist_.merge(other.time_hist_);
  time_sketch_.merge(other.time_sketch_);
}

void FleetAggregates::clear() {
  participants_ = 0;
  glove_counts_.fill(0);
  reach_counts_.fill(0);
  expertise_.clear();
  trials_ = 0;
  successes_ = 0;
  wrong_selections_ = 0;
  overshoots_ = 0;
  corrective_movements_ = 0;
  time_s_.clear();
  throughput_.clear();
  time_hist_.clear();
  time_sketch_.clear();
}

void FleetAggregates::serialize(util::ByteWriter& out) const {
  out.u64(participants_);
  for (const std::uint64_t c : glove_counts_) out.u64(c);
  for (const std::uint64_t c : reach_counts_) out.u64(c);
  serialize_moments(out, expertise_);
  out.u64(trials_);
  out.u64(successes_);
  out.u64(wrong_selections_);
  out.u64(overshoots_);
  out.u64(corrective_movements_);
  serialize_moments(out, time_s_);
  serialize_moments(out, throughput_);
  out.u64(time_hist_.count());
  out.f64(time_hist_.sum());
  out.u32(static_cast<std::uint32_t>(time_hist_.buckets().size()));
  for (const std::uint64_t b : time_hist_.buckets()) out.u64(b);
  time_sketch_.serialize(out);
}

bool FleetAggregates::deserialize(util::ByteReader& in) {
  clear();
  if (!in.u64(participants_)) return false;
  for (std::uint64_t& c : glove_counts_) {
    if (!in.u64(c)) return false;
  }
  for (std::uint64_t& c : reach_counts_) {
    if (!in.u64(c)) return false;
  }
  if (!deserialize_moments(in, expertise_)) return false;
  if (!in.u64(trials_) || !in.u64(successes_) || !in.u64(wrong_selections_) ||
      !in.u64(overshoots_) || !in.u64(corrective_movements_)) {
    return false;
  }
  if (!deserialize_moments(in, time_s_) || !deserialize_moments(in, throughput_)) return false;
  std::uint64_t hist_count = 0;
  double hist_sum = 0.0;
  std::uint32_t hist_buckets = 0;
  if (!in.u64(hist_count) || !in.f64(hist_sum) || !in.u32(hist_buckets)) return false;
  std::array<std::uint64_t, obs::Histogram::kBuckets> buckets{};
  if (hist_buckets != buckets.size()) return false;  // a foreign bucket layout
  for (std::uint64_t& b : buckets) {
    if (!in.u64(b)) return false;
  }
  time_hist_.restore(hist_count, hist_sum, buckets);
  return time_sketch_.deserialize(in);
}

std::vector<std::uint8_t> FleetAggregates::to_bytes() const {
  std::vector<std::uint8_t> bytes;
  util::ByteWriter writer(bytes);
  serialize(writer);
  return bytes;
}

bool operator==(const FleetAggregates& a, const FleetAggregates& b) {
  return a.participants_ == b.participants_ && a.glove_counts_ == b.glove_counts_ &&
         a.reach_counts_ == b.reach_counts_ && a.expertise_ == b.expertise_ &&
         a.trials_ == b.trials_ && a.successes_ == b.successes_ &&
         a.wrong_selections_ == b.wrong_selections_ && a.overshoots_ == b.overshoots_ &&
         a.corrective_movements_ == b.corrective_movements_ && a.time_s_ == b.time_s_ &&
         a.throughput_ == b.throughput_ && a.time_hist_.count() == b.time_hist_.count() &&
         a.time_hist_.sum() == b.time_hist_.sum() &&
         a.time_hist_.buckets() == b.time_hist_.buckets() && a.time_sketch_ == b.time_sketch_;
}

std::vector<std::uint8_t> encode_fleet_checkpoint(const FleetStudyConfig& config,
                                                  std::uint64_t cursor,
                                                  const FleetAggregates& aggregates) {
  std::vector<std::uint8_t> payload;
  util::ByteWriter writer(payload);
  write_identity(writer, config);
  writer.u64(cursor);
  aggregates.serialize(writer);
  return payload;
}

util::CheckpointStatus decode_fleet_checkpoint(const std::vector<std::uint8_t>& payload,
                                               const FleetStudyConfig& config,
                                               std::uint64_t& cursor,
                                               FleetAggregates& aggregates) {
  std::vector<std::uint8_t> expected;
  util::ByteWriter writer(expected);
  write_identity(writer, config);
  if (payload.size() < expected.size()) return util::CheckpointStatus::Corrupt;
  if (!std::equal(expected.begin(), expected.end(), payload.begin())) {
    return util::CheckpointStatus::Mismatch;
  }
  util::ByteReader reader(payload);
  {
    // Skip the identity block just compared (ByteReader has no seek).
    std::uint64_t u64_scratch = 0;
    std::uint32_t u32_scratch = 0;
    double f64_scratch = 0.0;
    for (int i = 0; i < 3; ++i) (void)reader.u64(u64_scratch);
    for (int i = 0; i < 2; ++i) (void)reader.u32(u32_scratch);
    for (int i = 0; i < 4; ++i) (void)reader.f64(f64_scratch);
    (void)reader.u32(u32_scratch);
    for (int i = 0; i < 8; ++i) (void)reader.f64(f64_scratch);
    if (reader.cursor() != expected.size()) return util::CheckpointStatus::Corrupt;
  }
  if (!reader.u64(cursor)) return util::CheckpointStatus::Corrupt;
  if (!aggregates.deserialize(reader)) return util::CheckpointStatus::Corrupt;
  if (!reader.exhausted()) return util::CheckpointStatus::Corrupt;
  if (cursor > config.participants) return util::CheckpointStatus::Corrupt;
  return util::CheckpointStatus::Ok;
}

FleetRunResult run_fleet(const FleetStudyConfig& config, std::uint64_t stop_after) {
  FleetRunResult result;
  FleetStudyConfig cfg = config;
  if (cfg.chunk == 0) cfg.chunk = 1;

  if (cfg.resume && !cfg.checkpoint_path.empty()) {
    std::vector<std::uint8_t> payload;
    const auto read_status = util::read_checkpoint_file(
        cfg.checkpoint_path, kFleetCheckpointMagic, kFleetCheckpointVersion, payload);
    if (read_status == util::CheckpointStatus::Ok) {
      const auto decode_status =
          decode_fleet_checkpoint(payload, cfg, result.cursor, result.aggregates);
      if (decode_status != util::CheckpointStatus::Ok) {
        result.status = decode_status;
        result.error = std::string("resume: ") + util::to_string(decode_status);
        return result;
      }
      result.resumed = true;
      result.resumed_from = result.cursor;
    } else if (read_status != util::CheckpointStatus::Missing) {
      // Only a MISSING file means "nothing to resume, start fresh". A
      // file that exists but fails to read (IoError: permissions,
      // transient FS error) or to validate must abort — restarting from
      // zero over a real checkpoint is never silent.
      result.status = read_status;
      result.error = std::string("resume: ") + util::to_string(read_status);
      return result;
    }
  }

  FleetConfig engine_config;
  engine_config.participants = cfg.participants;
  engine_config.threads = cfg.threads;
  engine_config.chunk = cfg.chunk;
  engine_config.base_seed = cfg.base_seed;
  engine_config.window_chunks = cfg.window_chunks;
  FleetEngine<FleetAggregates> engine(engine_config);

  // The chunk's participants become BatchTrialRunner lanes; folding
  // happens AFTER run() in lane (== participant) order: participant,
  // then its trials in task order.
  const auto chunk_body = [&cfg](std::uint64_t first, std::uint64_t count, FleetAggregates& out,
                                 const FleetEngine<FleetAggregates>& eng) {
    auto& batch = BatchTrialRunner::local();
    thread_local std::vector<human::SampledParticipant> lane_participants;
    lane_participants.assign(static_cast<std::size_t>(count), human::SampledParticipant{});
    batch.begin_group(static_cast<std::size_t>(count));
    for (std::uint64_t k = 0; k < count; ++k) {
      const sim::Rng rng = eng.participant_rng(first + k);
      lane_participants[static_cast<std::size_t>(k)] =
          human::sample_participant(cfg.population, rng.fork(0));
      const auto& participant = lane_participants[static_cast<std::size_t>(k)];
      sim::Rng task_rng = rng.fork(2);
      const auto tasks = random_tasks(task_rng, cfg.menu_size, cfg.trials_per_participant);
      batch.init_cell(static_cast<std::size_t>(k), technique_config(participant), rng.fork(1),
                      tasks, participant.profile, rng.fork(3));
    }
    batch.run();
    for (std::uint64_t k = 0; k < count; ++k) {
      out.fold_participant(lane_participants[static_cast<std::size_t>(k)]);
      for (const TrialRecord& record : batch.records(static_cast<std::size_t>(k))) {
        out.fold_trial(record);
      }
    }
  };

  std::uint64_t last_saved = result.cursor;
  const auto save = [&](const FleetAggregates& aggregates, std::uint64_t cursor) {
    const auto status =
        util::write_checkpoint_file(cfg.checkpoint_path, kFleetCheckpointMagic,
                                    kFleetCheckpointVersion,
                                    encode_fleet_checkpoint(cfg, cursor, aggregates));
    if (status != util::CheckpointStatus::Ok && result.status == util::CheckpointStatus::Ok) {
      result.status = status;
      result.error = std::string("checkpoint write: ") + util::to_string(status);
    }
    return status == util::CheckpointStatus::Ok;
  };
  const auto window_hook = [&](const FleetAggregates& aggregates, std::uint64_t cursor) {
    if (cfg.checkpoint_path.empty() || cfg.checkpoint_every == 0) return;
    if (cursor >= cfg.participants) return;  // the final save below covers this
    if (cursor - last_saved < cfg.checkpoint_every) return;
    if (save(aggregates, cursor)) last_saved = cursor;
  };

  const std::uint64_t stop = std::min(stop_after, cfg.participants);
  engine.run(result.aggregates, result.cursor, stop, chunk_body, window_hook);

  result.complete = result.cursor >= cfg.participants;
  if (!cfg.checkpoint_path.empty()) (void)save(result.aggregates, result.cursor);
  return result;
}

}  // namespace distscroll::study
