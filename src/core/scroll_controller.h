// Turns the raw ADC sample stream into menu-cursor positions.
//
// Holds the firmware-side policy knobs the paper leaves open:
//  * direction mapping — "we are currently analyzing whether it is more
//    intuitive to move the DistScroll towards oneself to scroll down or
//    to scroll up" (Section 5.1 / open issue Q5);
//  * input smoothing — the paper reads the parameter "directly ...
//    without the need of heavy input processing"; raw lookup is the
//    paper's mode, median-3 and EMA are the ablation alternatives.
//
// All arithmetic is integer, and each processed sample reports its PIC
// cycle cost so the "no heavy processing" claim can be benchmarked.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>

#include "core/island_mapper.h"
#include "obs/tracer.h"
#include "util/ring_buffer.h"
#include "util/units.h"

namespace distscroll::core {

enum class ScrollDirection : std::uint8_t {
  /// Moving the device toward the body scrolls DOWN the menu (nearest
  /// island = last entry).
  TowardUserScrollsDown,
  /// Moving toward the body scrolls UP (nearest island = first entry).
  TowardUserScrollsUp,
};

enum class Smoothing : std::uint8_t {
  Raw,      // the paper's direct mapping
  Median3,  // kills single-sample glitches (specular boundaries)
  Ema,      // exponential moving average, alpha = 1/4
};

class ScrollController {
 public:
  struct Config {
    ScrollDirection direction = ScrollDirection::TowardUserScrollsDown;
    Smoothing smoothing = Smoothing::Raw;
  };

  ScrollController(const IslandMapper& mapper, Config config,
                   obs::Tracer* tracer = nullptr)
      : mapper_(&mapper), config_(config), tracer_(tracer) {}

  /// Structured tracing of island enter/leave and dead-zone crossings.
  /// Null detaches; tracing must never change behaviour (pinned by the
  /// tracing on/off property test).
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] const IslandMapper& mapper() const { return *mapper_; }

  struct Update {
    std::optional<std::size_t> menu_index;  // current selection after this sample
    bool changed = false;                   // selection moved this sample
    std::uint64_t cycles = 0;               // firmware cost of this sample
  };

  /// Process one ADC sample.
  Update on_sample(util::AdcCounts raw) {
    Update update;
    ++samples_;
    const std::uint16_t filtered = apply_smoothing(raw.value, update.cycles);

    const auto before = island_selection_;
    const bool was_in_gap = in_gap_;
    // One table probe serves both the selection and the gap statistic (a
    // second stateless lookup() per sample used to pay for the latter).
    const auto result = mapper_->probe(util::AdcCounts{filtered}, island_selection_);
    update.cycles += result.table_probed ? IslandMapper::lookup_cost_cycles()
                                         : IslandMapper::hysteresis_hold_cycles();
    if (result.in_gap) ++gap_samples_;
    if (result.selection) island_selection_ = result.selection;
    if (island_selection_ != before) {
      ++changes_;
      update.changed = true;
    }
    in_gap_ = result.in_gap;
    // --- trace the transitions (observability only; no behaviour) ----------
    if (island_selection_ != before) {
      if (before) {
        DS_TRACE(tracer_, obs::EventKind::IslandLeave, static_cast<std::uint32_t>(*before),
                 static_cast<std::uint32_t>(to_menu_index(*before)));
      }
      DS_TRACE(tracer_, obs::EventKind::IslandEnter,
               static_cast<std::uint32_t>(*island_selection_),
               static_cast<std::uint32_t>(to_menu_index(*island_selection_)));
    } else if (!in_gap_ && was_in_gap && island_selection_) {
      // Re-entered the same island after a dead-zone excursion.
      DS_TRACE(tracer_, obs::EventKind::IslandEnter,
               static_cast<std::uint32_t>(*island_selection_),
               static_cast<std::uint32_t>(to_menu_index(*island_selection_)));
    }
    if (in_gap_ && !was_in_gap && island_selection_) {
      DS_TRACE(tracer_, obs::EventKind::DeadZoneCross,
               static_cast<std::uint32_t>(*island_selection_), filtered);
    }
    update.menu_index = selection();
    return update;
  }

  /// Current selection as a menu index (nullopt before first island hit).
  [[nodiscard]] std::optional<std::size_t> selection() const {
    if (!island_selection_) return std::nullopt;
    return to_menu_index(*island_selection_);
  }

  void reset() {
    island_selection_.reset();
    in_gap_ = false;
    median_window_.clear();
    ema_state_ = -1;
  }

  /// Restore the freshly-constructed state — selection, smoothing state
  /// AND stream statistics — for a new session or config. Equivalent to
  /// replacing the controller object, minus the heap churn; the mapper
  /// binding and tracer are kept.
  void reinitialize(Config config) {
    config_ = config;
    reset();
    samples_ = 0;
    changes_ = 0;
    gap_samples_ = 0;
  }

  // Stream statistics for the study harness.
  [[nodiscard]] std::uint64_t samples() const { return samples_; }
  [[nodiscard]] std::uint64_t selection_changes() const { return changes_; }
  /// Samples whose (filtered) counts fell in a selection-free gap. With
  /// hysteresis enabled, samples the hysteresis band held inside the
  /// current island do not count as gaps (no table probe runs for them).
  [[nodiscard]] std::uint64_t gap_samples() const { return gap_samples_; }

 private:
  [[nodiscard]] std::size_t to_menu_index(std::size_t island_index) const {
    // Island 0 is the NEAREST entry. "Toward user scrolls down" therefore
    // means the nearest island is the bottom of the menu.
    if (config_.direction == ScrollDirection::TowardUserScrollsDown) {
      return mapper_->entries() - 1 - island_index;
    }
    return island_index;
  }

  std::uint16_t apply_smoothing(std::uint16_t raw, std::uint64_t& cycles) {
    switch (config_.smoothing) {
      case Smoothing::Raw:
        cycles += 2;  // just a register move
        return raw;
      case Smoothing::Median3: {
        median_window_.push_overwrite(raw);
        std::uint16_t a = raw, b = raw, c = raw;
        if (median_window_.size() >= 1) a = median_window_.at_from_oldest(0);
        if (median_window_.size() >= 2) b = median_window_.at_from_oldest(1);
        if (median_window_.size() >= 3) c = median_window_.at_from_oldest(2);
        // Median of three: ~9 compares/moves on the PIC.
        cycles += 18;
        const std::uint16_t lo = std::min({a, b, c});
        const std::uint16_t hi = std::max({a, b, c});
        return static_cast<std::uint16_t>(a + b + c - lo - hi);
      }
      case Smoothing::Ema: {
        // Fixed-point EMA with alpha = 1/4: state is counts << 2.
        if (ema_state_ < 0) ema_state_ = static_cast<std::int32_t>(raw) << 2;
        ema_state_ += ((static_cast<std::int32_t>(raw) << 2) - ema_state_) >> 2;
        cycles += 10;  // shift-add on 16/32-bit emulated arithmetic
        return static_cast<std::uint16_t>(ema_state_ >> 2);
      }
    }
    return raw;
  }

  const IslandMapper* mapper_;
  Config config_;
  obs::Tracer* tracer_ = nullptr;
  bool in_gap_ = false;  // last sample fell in a selection-free gap
  std::optional<std::size_t> island_selection_;
  util::RingBuffer<std::uint16_t, 3> median_window_;
  std::int32_t ema_state_ = -1;  // scaled by 4 to keep fractional bits
  std::uint64_t samples_ = 0;
  std::uint64_t changes_ = 0;
  std::uint64_t gap_samples_ = 0;
};

}  // namespace distscroll::core
