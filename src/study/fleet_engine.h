// Streaming fleet engine: sweeps over populations too large to store.
//
// SweepRunner pre-sizes one result slot per cell, so study size is
// capped by memory. FleetEngine removes the cap: participants are
// generated on the fly from their index, folded CHUNK by chunk into
// mergeable online aggregates, and only the aggregates survive — memory
// is O(min(window_chunks, chunks) × |Agg|), independent of the
// participant count: the engine builds only the chunk slots a run can
// fill (DESIGN.md §12).
//
// Determinism contract (extends DESIGN.md §7; details in §12):
//  * participant k's randomness is Rng(base_seed).fork(k) — identical
//    to SweepRunner's per-cell streams, never keyed on thread/schedule;
//  * a chunk ([first, first+chunk) participants) is folded SEQUENTIALLY
//    into a fresh aggregate by one worker;
//  * chunk aggregates merge into the global aggregate in ascending
//    chunk-index order, always. Floating-point merge maths doesn't
//    commute, so the fixed order — not just the formulas — is what
//    makes the merged result bit-identical at ANY thread count and at
//    ANY checkpoint boundary. Enforced by tests/fleet_test.cpp and by
//    exp_fleet_population on every run.
//
// The engine processes windows of `window_chunks` chunks: a window is
// parallel_for'd over the pool, merged in order, and the cursor
// advances to the window's end — a chunk-aligned cut point where the
// caller may checkpoint (serialise the global aggregate + cursor) or
// stop. Resuming from such a cut replays the identical fold/merge
// sequence, so full == stop+resume down to the serialised bytes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/random.h"
#include "sim/thread_pool.h"
#include "study/sweep_runner.h"

namespace distscroll::study {

struct FleetConfig {
  std::uint64_t participants = 0;
  /// 0 resolves like SweepConfig::threads ($DISTSCROLL_THREADS / hw).
  std::size_t threads = 0;
  /// Participants folded per chunk — the merge granularity. Part of the
  /// result's identity: changing it changes merge order, so it is
  /// recorded in checkpoints and must match on resume.
  std::uint64_t chunk = 256;
  std::uint64_t base_seed = 0;
  /// Chunk aggregates in flight per window — the memory bound (the
  /// engine builds min(window_chunks, chunks) slots). NOT part of the
  /// result's identity (merge order is chunk order regardless), so it
  /// may differ between a run and its resume.
  std::size_t window_chunks = 32;
};

/// Agg requirements: default-constructible, clear() (reset keeping
/// capacity), merge(const Agg&).
template <typename Agg>
class FleetEngine {
 public:
  explicit FleetEngine(const FleetConfig& config)
      : config_(config), root_(config.base_seed),
        threads_(resolve_sweep_threads(config.threads)) {
    if (config_.chunk == 0) config_.chunk = 1;
    if (config_.window_chunks == 0) config_.window_chunks = 1;
    if (threads_ > 1) pool_.emplace(threads_);
    // run() never dispatches more chunks per window than the run has,
    // so a window wider than the run builds only the slots it can fill.
    const std::uint64_t chunks = (config_.participants + config_.chunk - 1) / config_.chunk;
    slots_.resize(static_cast<std::size_t>(
        std::max<std::uint64_t>(1, std::min<std::uint64_t>(config_.window_chunks, chunks))));
  }

  [[nodiscard]] const FleetConfig& config() const { return config_; }
  [[nodiscard]] std::size_t threads() const { return threads_; }

  /// Participant k's private stream (same derivation as
  /// SweepRunner::cell_rng).
  [[nodiscard]] sim::Rng participant_rng(std::uint64_t index) const {
    return root_.fork(index);
  }

  /// Fold participants [cursor, min(stop_after, participants)) into
  /// `global`, advancing `cursor` window by window.
  ///
  /// ChunkBody: void(uint64 first, uint64 count, Agg& out,
  ///                 const FleetEngine& engine)
  ///   — must fold participants [first, first+count) sequentially into
  ///   `out`, drawing only from engine.participant_rng(i).
  /// WindowHook: void(const Agg& global, uint64 cursor) — called after
  ///   each merged window at a chunk-aligned cursor (checkpoint point).
  ///
  /// `cursor` must be a value previously produced by run() or 0 —
  /// chunk-aligned, except that a finished run's cursor is
  /// `participants` (possibly mid-chunk), which resumes as a no-op;
  /// `stop_after` is rounded UP to the next chunk boundary so
  /// interruption never splits a chunk's fold.
  template <typename ChunkBody, typename WindowHook>
  void run(Agg& global, std::uint64_t& cursor, std::uint64_t stop_after, ChunkBody&& body,
           WindowHook&& window_hook) {
    const std::uint64_t chunk = config_.chunk;
    const std::uint64_t total_chunks = (config_.participants + chunk - 1) / chunk;
    // Ceiling, not floor: a COMPLETE run's cursor == participants, which
    // is not chunk-aligned when participants % chunk != 0. Flooring would
    // re-fold the final partial chunk into the already-complete aggregate
    // on a no-op resume (silent double-count).
    std::uint64_t next_chunk = (cursor + chunk - 1) / chunk;
    const std::uint64_t stop_chunk =
        std::min(total_chunks, stop_after >= config_.participants
                                   ? total_chunks
                                   : (stop_after + chunk - 1) / chunk);
    while (next_chunk < stop_chunk) {
      const std::uint64_t window = std::min<std::uint64_t>(slots_.size(), stop_chunk - next_chunk);
      auto run_chunk = [&](std::size_t i) {
        const std::uint64_t chunk_index = next_chunk + i;
        const std::uint64_t first = chunk_index * chunk;
        const std::uint64_t count = std::min(chunk, config_.participants - first);
        slots_[i].clear();
        body(first, count, slots_[i], *this);
      };
      if (pool_) {
        pool_->parallel_for(static_cast<std::size_t>(window), run_chunk);
      } else {
        for (std::size_t i = 0; i < window; ++i) run_chunk(i);
      }
      // The fixed-order merge: ascending chunk index, every run.
      for (std::size_t i = 0; i < window; ++i) global.merge(slots_[i]);
      next_chunk += window;
      cursor = std::min(next_chunk * chunk, config_.participants);
      window_hook(global, cursor);
    }
  }

  /// run() without a window hook.
  template <typename ChunkBody>
  void run(Agg& global, std::uint64_t& cursor, std::uint64_t stop_after, ChunkBody&& body) {
    run(global, cursor, stop_after, body, [](const Agg&, std::uint64_t) {});
  }

 private:
  FleetConfig config_;
  sim::Rng root_;
  std::size_t threads_;
  std::optional<sim::ThreadPool> pool_;
  std::vector<Agg> slots_;  // the bounded in-flight window
};

}  // namespace distscroll::study
