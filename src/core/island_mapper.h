// The paper's sensor-value-to-entry mapping (Section 4.2).
//
// "We first chose how many entities lie in a given data structure and
//  then distributed these entities as described over the sensor range.
//  We calculated the expected sensor values by inserting the distance
//  ... in the function in Figure 5. We then defined islands around the
//  calculated sensor values in such a manner that in this interval a
//  specific entry is selected. These islands do not cover the complete
//  spectrum of possible values, there are intervals in which no entry is
//  selected. By this, we provide the user with the perception that the
//  entries are equally spaced on the complete scrollable distance."
//
// Implementation: entries are placed at equally spaced *distances*
// within [near, far]; each entry's island is the expected-count interval
// around its centre count, shrunk by `coverage` (< 1 leaves the paper's
// selection-free gaps). Because the sensor curve is hyperbolic, islands
// are wide (in counts) near the body and narrow far away — the
// non-linear placement that makes spacing *feel* uniform in cm.
//
// The mapper runs in "firmware" conditions: integer ADC counts in, an
// index (or no-change) out, O(log N) lookup over a table that fits the
// PIC's RAM budget.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/sensor_curve.h"
#include "util/units.h"

namespace distscroll::core {

class IslandMapper {
 public:
  struct Config {
    util::Centimeters near{4.0};   // the paper's predicted usage range
    util::Centimeters far{30.0};
    /// Fraction of each inter-centre gap covered by the island
    /// (0 < coverage <= 1; 1.0 makes islands touch, eliminating the
    /// selection-free intervals).
    double coverage = 0.6;
    /// Extra hysteresis: once inside an island, the reading must leave
    /// the island *plus* this many counts before the selection can
    /// change. 0 reproduces the paper's plain islands.
    std::uint16_t hysteresis_counts = 0;
  };

  /// Builds islands for `entries` menu entries using the (calibrated)
  /// sensor curve. Precondition: entries >= 1, near < far.
  IslandMapper(const SensorCurve& curve, std::size_t entries, Config config);

  /// Rebuild the table in place for a new entry count/config. Reuses the
  /// island/centre storage (no allocation once capacity has grown to the
  /// largest menu level seen) — the path menu-level changes take.
  void rebuild(const SensorCurve& curve, std::size_t entries, Config config);

  [[nodiscard]] std::size_t entries() const { return islands_.size(); }
  [[nodiscard]] const Config& config() const { return config_; }

  struct Island {
    std::uint16_t low;     // inclusive ADC-count bounds; low > high marks an
    std::uint16_t high;    // empty island (entry unresolvable by the ADC)
    std::uint16_t centre;  // expected counts at the entry's centre distance
  };
  [[nodiscard]] const std::vector<Island>& islands() const { return islands_; }

  /// The stateless lookup, reference implementation: binary search over
  /// the island table. Kept as the oracle the LUT is property-tested
  /// against; the hot path reads the LUT through probe().
  [[nodiscard]] std::optional<std::size_t> lookup(util::AdcCounts counts) const;

  /// O(1) lookup through the 1024-entry counts→island table — exactly
  /// the table the PIC firmware would burn into flash (1 KB of 8-bit
  /// entry ids; we store 16-bit ids so >255-entry menus stay correct).
  [[nodiscard]] std::optional<std::size_t> lookup_lut(util::AdcCounts counts) const {
    const std::uint16_t id = probe(counts, kLutGap).id;
    if (id == kLutGap) return std::nullopt;
    return static_cast<std::size_t>(id);
  }

  /// One table probe, full verdict: the island the counts select, or
  /// kLutGap when they fall in a selection-free gap ("No selection or
  /// change happens if the device is held in a distance between two of
  /// those islands") or past the 10-bit range. `current` is the island
  /// held so far, or any index >= entries() (the controller passes
  /// kLutGap) before the first hit. The firmware hot path
  /// (ScrollController::on_sample) uses this so gap statistics come for
  /// free from the single probe.
  struct Probe {
    /// Island index (may equal `current`), or kLutGap for a gap.
    std::uint16_t id = kLutGap;
    /// The table was actually read (false = hysteresis held the current
    /// island without touching the table — cheaper in cycles).
    bool table_probed = true;
  };
  [[nodiscard]] Probe probe(util::AdcCounts counts, std::size_t current) const {
    const std::uint16_t x = counts.value;
    // Branch-free: the masked index keeps the load in bounds, and counts
    // past the table OR in all ones, which is kLutGap.
    const std::uint16_t id = lut_[x & (kLutSize - 1)] | all_ones_if(x >= kLutSize);
    if (config_.hysteresis_counts == 0 || current >= islands_.size()) return {id, true};
    const Island& island = islands_[current];
    const int h = config_.hysteresis_counts;
    const bool hold = (x + h >= island.low) & (x <= island.high + h);
    const std::uint16_t keep = all_ones_if(hold);
    return {static_cast<std::uint16_t>((current & keep) | (id & ~keep)), !hold};
  }

  /// 0xFFFF when `condition` holds, else 0: the mask behind the
  /// firmware step's branch-free selects.
  [[nodiscard]] static constexpr std::uint16_t all_ones_if(bool condition) {
    return static_cast<std::uint16_t>(-static_cast<int>(condition));
  }

  /// Firmware cost of a hysteresis short-circuit (two 16-bit compares);
  /// charged instead of lookup_cost_cycles() when probe() skips the
  /// table.
  [[nodiscard]] static constexpr std::uint64_t hysteresis_hold_cycles() { return 8; }

  /// Fraction of the count spectrum [far-counts, near-counts] covered by
  /// islands (for the ablation bench).
  [[nodiscard]] double coverage_fraction() const;

  /// Distance of an entry's centre (for display/debug).
  [[nodiscard]] util::Centimeters centre_distance(std::size_t entry) const;

  /// Approximate firmware cost of one lookup in PIC instruction cycles:
  /// one flash table fetch (TBLPTR setup + TBLRD*), independent of the
  /// entry count now that the mapping is a burned-in LUT.
  [[nodiscard]] static constexpr std::uint64_t lookup_cost_cycles() {
    // Flash LUT fetch: load the 16-bit counts into TBLPTR (~6 cycles of
    // pointer math on the 8-bit core), one TBLRD* (2 cycles), plus the
    // gap-sentinel compare and branch.
    return 10;
  }

  /// The binary-search cost the LUT replaced (reference implementation;
  /// kept so the microbench can report the saving).
  [[nodiscard]] std::uint64_t search_cost_cycles() const;

  static constexpr std::size_t kLutSize = 1024;   // full 10-bit ADC range
  static constexpr std::uint16_t kLutGap = 0xFFFF;

 private:
  Config config_;
  std::vector<Island> islands_;  // index 0 = nearest entry
  std::vector<util::Centimeters> centres_;
  std::vector<double> centre_counts_;  // rebuild() scratch (reused capacity)
  std::array<std::uint16_t, kLutSize> lut_{};  // counts -> entry id / kLutGap
  double spectrum_high_ = 1023.0;  // expected counts at `near`
  double spectrum_low_ = 0.0;      // expected counts at `far`
};

}  // namespace distscroll::core
