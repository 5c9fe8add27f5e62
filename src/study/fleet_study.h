// Fleet-scale DistScroll population study: streaming aggregates and
// checkpointable runs over one chunk body (BatchTrialRunner lanes).
//
// run_fleet() drives the FleetEngine over a sampled population
// (human::PopulationSpec): participant k's profile, task set and trial
// streams all derive from Rng(base_seed).fork(k), mirroring the per-cell
// fork decomposition every DistScroll bench uses —
//   fork(0) population sampling, fork(1) technique, fork(2) tasks,
//   fork(3) trials
// — so results are a pure function of (config, base_seed) at any thread
// count and across any checkpoint/resume split (DESIGN.md §12).
//
// Memory is O(FleetAggregates) — a few KB of moments, counters, one
// log₂ time histogram and one quantile sketch — regardless of whether
// the run covers 10 thousand or 10 million participants.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "human/population.h"
#include "obs/metrics.h"
#include "study/metrics.h"
#include "util/checkpoint_io.h"
#include "util/online_stats.h"
#include "util/quantile_sketch.h"

namespace distscroll::study {

/// Everything a fleet run keeps: mergeable, clearable, byte-exactly
/// serialisable. Fold order within a chunk is participant order, and
/// for each participant fold_participant() then its trials in task
/// order.
class FleetAggregates {
 public:
  FleetAggregates();

  /// Alloc-free after construction (DS_ASSERT_NO_ALLOC pins this).
  void fold_participant(const human::SampledParticipant& participant);
  /// Alloc-free after construction (DS_ASSERT_NO_ALLOC pins this).
  void fold_trial(const TrialRecord& record);

  /// this <- this ++ other. Callers MUST merge in ascending chunk-index
  /// order — the merge maths is order-sensitive in FP.
  void merge(const FleetAggregates& other);
  /// Reset to empty, keeping warmed capacity (sketch buffers).
  void clear();

  void serialize(util::ByteWriter& out) const;
  [[nodiscard]] bool deserialize(util::ByteReader& in);
  /// serialize() into a fresh vector — the byte-identity comparisons the
  /// bench and tests run.
  [[nodiscard]] std::vector<std::uint8_t> to_bytes() const;

  // --- participant-level ----------------------------------------------------
  [[nodiscard]] std::uint64_t participants() const { return participants_; }
  [[nodiscard]] const util::OnlineMoments& expertise() const { return expertise_; }
  [[nodiscard]] const std::array<std::uint64_t, 3>& glove_counts() const { return glove_counts_; }
  [[nodiscard]] const std::array<std::uint64_t, human::kReachPresetsCm.size()>& reach_counts()
      const {
    return reach_counts_;
  }

  // --- trial-level ----------------------------------------------------------
  [[nodiscard]] std::uint64_t trials() const { return trials_; }
  [[nodiscard]] std::uint64_t successes() const { return successes_; }
  [[nodiscard]] std::uint64_t wrong_selections() const { return wrong_selections_; }
  [[nodiscard]] std::uint64_t overshoots() const { return overshoots_; }
  [[nodiscard]] std::uint64_t corrective_movements() const { return corrective_movements_; }
  /// Successful-trial selection times.
  [[nodiscard]] const util::OnlineMoments& time_s() const { return time_s_; }
  /// ID/time over successful trials.
  [[nodiscard]] const util::OnlineMoments& throughput_bits_s() const { return throughput_; }
  [[nodiscard]] const util::QuantileSketch& time_sketch() const { return time_sketch_; }

  friend bool operator==(const FleetAggregates& a, const FleetAggregates& b);

 private:
  std::uint64_t participants_ = 0;
  std::array<std::uint64_t, 3> glove_counts_{};  // indexed by human::Glove
  std::array<std::uint64_t, human::kReachPresetsCm.size()> reach_counts_{};
  util::OnlineMoments expertise_;

  std::uint64_t trials_ = 0;
  std::uint64_t successes_ = 0;
  std::uint64_t wrong_selections_ = 0;
  std::uint64_t overshoots_ = 0;
  std::uint64_t corrective_movements_ = 0;
  util::OnlineMoments time_s_;
  util::OnlineMoments throughput_;
  obs::Histogram time_hist_;
  util::QuantileSketch time_sketch_;
};

struct FleetStudyConfig {
  human::PopulationSpec population{};
  std::uint64_t participants = 100000;
  std::uint32_t trials_per_participant = 4;
  std::uint32_t menu_size = 40;
  std::uint64_t base_seed = 0xD157F1EE;
  /// 0 resolves like SweepConfig::threads ($DISTSCROLL_THREADS / hw).
  std::size_t threads = 0;
  /// Merge granularity (participants per chunk) — part of the result's
  /// identity and of the checkpoint identity block.
  std::uint64_t chunk = 256;
  /// Memory bound (chunk aggregates in flight); NOT part of identity.
  std::size_t window_chunks = 32;
  /// Ignored: run_fleet has one chunk body. Kept only so existing
  /// callers that assign it still compile; not part of the checkpoint
  /// identity.
  bool batched = true;
  /// Empty disables checkpointing entirely.
  std::string checkpoint_path{};
  /// Participants between periodic checkpoint writes (0: only write the
  /// final state when a checkpoint_path is set).
  std::uint64_t checkpoint_every = 0;
  /// Load checkpoint_path before running and continue from its cursor.
  /// An unreadable/corrupt/mismatched file ABORTS the run (never a
  /// silent restart); a missing file starts from zero.
  bool resume = false;
};

inline constexpr std::uint32_t kFleetCheckpointMagic = 0x4C46'5344;  // "DSFL" little-endian
/// 2: normals come from the ziggurat sampler. A version-1 file was
/// written under the Box–Muller stream, and resuming it would mix two
/// streams, so read_checkpoint_file refuses it as BadVersion.
inline constexpr std::uint32_t kFleetCheckpointVersion = 2;

/// Sentinel: run to completion.
inline constexpr std::uint64_t kFleetRunAll = ~static_cast<std::uint64_t>(0);

struct FleetRunResult {
  FleetAggregates aggregates;
  /// Participants folded so far (== config.participants when complete;
  /// chunk-aligned otherwise).
  std::uint64_t cursor = 0;
  /// Cursor the run started from (non-zero only after a resume).
  std::uint64_t resumed_from = 0;
  bool resumed = false;
  bool complete = false;
  /// Non-Ok means the run aborted before folding anything (bad resume
  /// file or unwritable checkpoint); `error` carries the rendered cause.
  util::CheckpointStatus status = util::CheckpointStatus::Ok;
  std::string error;
};

/// Encode (identity block, cursor, aggregates) as a checkpoint payload.
[[nodiscard]] std::vector<std::uint8_t> encode_fleet_checkpoint(const FleetStudyConfig& config,
                                                                std::uint64_t cursor,
                                                                const FleetAggregates& aggregates);

/// Decode a payload produced by encode_fleet_checkpoint. Mismatch when
/// the identity block disagrees with `config`; Corrupt on malformed
/// bytes; Ok restores cursor + aggregates.
[[nodiscard]] util::CheckpointStatus decode_fleet_checkpoint(
    const std::vector<std::uint8_t>& payload, const FleetStudyConfig& config,
    std::uint64_t& cursor, FleetAggregates& aggregates);

/// Run (or resume) the fleet study, folding at most up to participant
/// `stop_after` (rounded up to a chunk boundary) before writing a final
/// checkpoint and returning. stop_after lets the bench and tests force
/// a mid-run cut; normal callers leave it at kFleetRunAll.
[[nodiscard]] FleetRunResult run_fleet(const FleetStudyConfig& config,
                                       std::uint64_t stop_after = kFleetRunAll);

}  // namespace distscroll::study
