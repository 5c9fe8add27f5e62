#include "core/island_mapper.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace distscroll::core {

IslandMapper::IslandMapper(const SensorCurve& curve, std::size_t entries, Config config) {
  rebuild(curve, entries, config);
}

void IslandMapper::rebuild(const SensorCurve& curve, std::size_t entries, Config config) {
  config_ = config;
  assert(entries >= 1);
  assert(entries < kLutGap);  // island ids and the gap sentinel share 16 bits
  assert(config.near < config.far);
  assert(config.coverage > 0.0 && config.coverage <= 1.0);

  const double span = config.far.value - config.near.value;
  const double slot = span / static_cast<double>(entries);

  // Entry centres at equally spaced distances: the perceptual uniformity
  // the paper engineers for. centre_counts_ is scratch kept as a member
  // so rebuild() allocates nothing once capacity covers the largest
  // level.
  // ds-lint: allow(no-alloc-markers) member scratch; capacity ratchets to the largest level once
  centre_counts_.resize(entries);
  std::vector<double>& centre_counts = centre_counts_;
  // ds-lint: allow(no-alloc-markers) same recycled-capacity pattern as centre_counts_
  centres_.resize(entries);
  for (std::size_t i = 0; i < entries; ++i) {
    const util::Centimeters d{config.near.value + (static_cast<double>(i) + 0.5) * slot};
    centres_[i] = d;
    centre_counts[i] = curve.counts_at(d).value;
  }

  spectrum_high_ = curve.counts_at(config_.near).value;
  spectrum_low_ = curve.counts_at(config_.far).value;

  // ds-lint: allow(no-alloc-markers) recycled capacity: warm rebuilds shrink or reuse, never grow past the first largest level
  islands_.resize(entries);
  // `bound`: the next island's high end must stay strictly below it so
  // the table remains disjoint after integer rounding (binary-search
  // invariant). When the ADC runs out of resolution an island collapses
  // to an empty interval (low > high) — that entry is genuinely
  // unreachable by distance alone, which the long-menu experiments
  // surface.
  int bound = 1024;
  for (std::size_t i = 0; i < entries; ++i) {
    // Counts decrease with distance, so the *upper* count bound faces the
    // nearer neighbour (i-1) and the lower bound the farther one (i+1).
    const double up_gap = (i == 0) ? spectrum_high_ - centre_counts[0]
                                   : (centre_counts[i - 1] - centre_counts[i]) / 2.0;
    const double down_gap = (i + 1 == entries)
                                ? centre_counts[i] - spectrum_low_
                                : (centre_counts[i] - centre_counts[i + 1]) / 2.0;
    double high_d = centre_counts[i] + std::max(0.0, up_gap) * config_.coverage;
    double low_d = centre_counts[i] - std::max(0.0, down_gap) * config_.coverage;
    high_d = std::clamp(high_d, 0.0, 1023.0);
    low_d = std::clamp(low_d, 0.0, std::max(0.0, high_d));

    int high = std::min(static_cast<int>(std::lround(high_d)), bound - 1);
    int low = static_cast<int>(std::lround(low_d));
    if (low > high) {
      // Squeezed out by quantisation, or no counts left once a nearer
      // island took count 0 (high == -1): an empty interval positioned
      // at `high` (at 0 when none are left) so the table stays ordered.
      bound = high + 1;
      high = std::max(high, 0);
      low = high + 1;
    } else {
      bound = low;
    }
    const int centre = std::clamp(static_cast<int>(std::lround(centre_counts[i])),
                                  std::min(low, high), high);
    islands_[i] = Island{static_cast<std::uint16_t>(low), static_cast<std::uint16_t>(high),
                         static_cast<std::uint16_t>(std::max(0, centre))};
  }

  // Burn the counts→entry LUT. Islands are disjoint by construction, so
  // painting each interval over a gap-filled table is exact; empty
  // islands (low > high) paint nothing.
  lut_.fill(kLutGap);
  for (std::size_t i = 0; i < entries; ++i) {
    const Island& island = islands_[i];
    if (island.low > island.high) continue;
    const std::size_t hi = std::min<std::size_t>(island.high, kLutSize - 1);
    for (std::size_t c = island.low; c <= hi; ++c) {
      lut_[c] = static_cast<std::uint16_t>(i);
    }
  }
}

std::optional<std::size_t> IslandMapper::lookup(util::AdcCounts counts) const {
  // Islands are ordered by descending counts (entry 0 nearest/highest).
  // Binary search for the first island whose low bound is <= counts.
  // Trailing empty islands own nothing, and one past the last count
  // cannot be positioned below count 0, so the search stops before them.
  const std::uint16_t x = counts.value;
  std::size_t lo = 0, hi = islands_.size();
  while (hi > 0 && islands_[hi - 1].low > islands_[hi - 1].high) --hi;
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (islands_[mid].high < x) {
      // x is above this island -> nearer entries (smaller index).
      hi = mid;
    } else if (islands_[mid].low > x) {
      lo = mid + 1;
    } else {
      return mid;
    }
  }
  return std::nullopt;
}

double IslandMapper::coverage_fraction() const {
  double covered = 0.0;
  for (const auto& island : islands_) {
    if (island.high >= island.low) {
      covered += static_cast<double>(island.high - island.low) + 1.0;
    }
  }
  const double spectrum = spectrum_high_ - spectrum_low_ + 1.0;
  if (spectrum <= 0.0) return 0.0;
  return std::min(1.0, covered / spectrum);
}

util::Centimeters IslandMapper::centre_distance(std::size_t entry) const {
  assert(entry < centres_.size());
  return centres_[entry];
}

std::uint64_t IslandMapper::search_cost_cycles() const {
  // The pre-LUT binary search: ~14 cycles per probe (compare, branch,
  // index math on an 8-bit core handling 16-bit values) plus fixed
  // overhead.
  const auto probes = static_cast<std::uint64_t>(
      std::ceil(std::log2(static_cast<double>(std::max<std::size_t>(2, islands_.size())))));
  return 12 + probes * 14;
}

}  // namespace distscroll::core
