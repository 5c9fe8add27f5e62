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
#include <array>
#include <cstdint>
#include <optional>

#include "core/island_mapper.h"
#include "obs/tracer.h"
#include "util/units.h"

namespace distscroll::core {

/// The firmware's 50 Hz sensing loop: one ranger sample and one
/// controller step per tick. The device model, the DistanceScroll
/// technique and the PDA add-on's sampling firmware all run on it.
inline constexpr util::Seconds kFirmwareTick{20e-3};

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

  /// Process one ADC sample: smoothing, one LUT probe, then the
  /// bookkeeping as selects and adds rather than branches on gap/hit
  /// (DESIGN.md §9). Forced inline: GCC otherwise keeps it out of line
  /// in DistanceScroll's block loop.
  [[gnu::always_inline]] Update on_sample(util::AdcCounts raw) {
    Update update;
    ++samples_;
    const std::uint16_t filtered = apply_smoothing(raw.value, update.cycles);
    const IslandMapper::Probe probe = mapper_->probe(util::AdcCounts{filtered}, island_);
    update.cycles += probe.table_probed ? IslandMapper::lookup_cost_cycles()
                                        : IslandMapper::hysteresis_hold_cycles();
    // A hold returns the current island, so only a table miss is a gap,
    // and a gap keeps the selection.
    const bool in_gap = probe.id == IslandMapper::kLutGap;
    const std::uint16_t before = island_;
    const std::uint16_t keep = IslandMapper::all_ones_if(in_gap);
    const auto after = static_cast<std::uint16_t>((before & keep) | (probe.id & ~keep));
    update.changed = after != before;
    gap_samples_ += in_gap;
    changes_ += update.changed;
    if (tracer_ != nullptr) [[unlikely]] {
      trace_transitions(before, after, in_gap_, in_gap, filtered);
    }
    in_gap_ = in_gap;
    island_ = after;
    update.menu_index = selection();
    return update;
  }

  /// Current selection as a menu index (nullopt before first island hit).
  [[nodiscard]] std::optional<std::size_t> selection() const {
    if (island_ == kNoIsland) return std::nullopt;
    return to_menu_index(island_);
  }

  void reset() {
    island_ = kNoIsland;
    in_gap_ = false;
    median_fill_ = 0;
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
  // ds-lint: allow(test-only-api) the controller and tracing-invariance tests count selection changes
  [[nodiscard]] std::uint64_t selection_changes() const { return changes_; }
  /// Samples whose (filtered) counts fell in a selection-free gap. With
  /// hysteresis enabled, samples the hysteresis band held inside the
  /// current island do not count as gaps (no table probe runs for them).
  // ds-lint: allow(test-only-api) pins the branch-free LUT step's gap bookkeeping; no output shows it
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
        // Median of the last three samples; until three have arrived the
        // newest one wins (the median of s1, s2, s2 is s2).
        const std::uint16_t lo = std::min({median_prev_[0], median_prev_[1], raw});
        const std::uint16_t hi = std::max({median_prev_[0], median_prev_[1], raw});
        const auto median =
            static_cast<std::uint16_t>(median_prev_[0] + median_prev_[1] + raw - lo - hi);
        const std::uint16_t out = median_fill_ == 2 ? median : raw;
        median_prev_[0] = median_prev_[1];
        median_prev_[1] = raw;
        median_fill_ += median_fill_ < 2;
        // Median of three: ~9 compares/moves on the PIC.
        cycles += 18;
        return out;
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

  /// The IslandEnter/IslandLeave/DeadZoneCross events of one sample;
  /// out of line so the untraced step carries none of it.
  [[gnu::cold]] void trace_transitions(std::uint16_t before, std::uint16_t after,
                                       bool was_in_gap, bool in_gap,
                                       std::uint16_t filtered) const;

  /// island_ before the first island hit (shares the LUT's gap id, which
  /// no island can have).
  static constexpr std::uint16_t kNoIsland = IslandMapper::kLutGap;

  const IslandMapper* mapper_;
  Config config_;
  obs::Tracer* tracer_ = nullptr;
  bool in_gap_ = false;  // last sample fell in a selection-free gap
  std::uint16_t island_ = kNoIsland;
  std::array<std::uint16_t, 2> median_prev_{};  // the two samples before this one, oldest first
  std::uint8_t median_fill_ = 0;                 // samples in median_prev_ (saturates at 2)
  std::int32_t ema_state_ = -1;  // scaled by 4 to keep fractional bits
  std::uint64_t samples_ = 0;
  std::uint64_t changes_ = 0;
  std::uint64_t gap_samples_ = 0;
};

}  // namespace distscroll::core
