// Tests for the paper's core mapping machinery: sensor curve, island
// construction (Section 4.2), and calibration.
#include <gtest/gtest.h>

#include <cmath>

#include "core/calibration.h"
#include "core/island_mapper.h"
#include "core/sensor_curve.h"
#include "sensors/gp2d120.h"

namespace distscroll::core {
namespace {

// --- sensor curve ------------------------------------------------------------

TEST(SensorCurve, ForwardInverseRoundTrip) {
  SensorCurve curve;
  for (double d = 4.0; d <= 30.0; d += 0.5) {
    const auto v = curve.volts_at(util::Centimeters{d});
    EXPECT_NEAR(curve.distance_at(v).value, d, 1e-9) << d;
  }
}

TEST(SensorCurve, CountsRoundTripWithinQuantisation) {
  SensorCurve curve;
  for (double d = 4.0; d <= 25.0; d += 1.0) {
    const auto counts = curve.counts_at(util::Centimeters{d});
    // One LSB of counts error translates to bounded distance error.
    EXPECT_NEAR(curve.distance_at(counts).value, d, 0.5) << d;
  }
}

TEST(SensorCurve, CountsDecreaseWithDistance) {
  SensorCurve curve;
  std::uint16_t prev = 1024;
  for (double d = 4.0; d <= 30.0; d += 1.0) {
    const auto counts = curve.counts_at(util::Centimeters{d});
    EXPECT_LT(counts.value, prev);
    prev = counts.value;
  }
}

// --- island construction (the paper's algorithm) -------------------------------

struct IslandCase {
  std::size_t entries;
  double coverage;
};

class IslandProperty : public ::testing::TestWithParam<IslandCase> {
 protected:
  SensorCurve curve{};
  IslandMapper make() const {
    IslandMapper::Config config;
    config.coverage = GetParam().coverage;
    return IslandMapper(curve, GetParam().entries, config);
  }
};

TEST_P(IslandProperty, IslandsAreDisjointAndOrdered) {
  const IslandMapper mapper = make();
  const auto& islands = mapper.islands();
  ASSERT_EQ(islands.size(), GetParam().entries);
  for (std::size_t i = 0; i < islands.size(); ++i) {
    if (islands[i].low <= islands[i].high) {  // non-empty island
      EXPECT_LE(islands[i].low, islands[i].centre);
      EXPECT_LE(islands[i].centre, islands[i].high);
    }
    if (i + 1 < islands.size()) {
      // Entry i is nearer (higher counts) than entry i+1: intervals
      // never overlap, even after integer quantisation.
      EXPECT_GT(islands[i].low, islands[i + 1].high);
    }
  }
}

TEST_P(IslandProperty, LookupInvertsCentres) {
  const IslandMapper mapper = make();
  for (std::size_t i = 0; i < mapper.entries(); ++i) {
    const auto& island = mapper.islands()[i];
    if (island.low > island.high) continue;  // unresolvable entry
    const auto hit = mapper.lookup(util::AdcCounts{island.centre});
    ASSERT_TRUE(hit.has_value()) << i;
    EXPECT_EQ(*hit, i);
  }
}

TEST_P(IslandProperty, CentresEquallySpacedInDistance) {
  // "the perception that the entries are equally spaced on the complete
  // scrollable distance".
  const IslandMapper mapper = make();
  const double span = mapper.config().far.value - mapper.config().near.value;
  const double slot = span / static_cast<double>(mapper.entries());
  for (std::size_t i = 0; i + 1 < mapper.entries(); ++i) {
    const double gap = mapper.centre_distance(i + 1).value - mapper.centre_distance(i).value;
    EXPECT_NEAR(gap, slot, 1e-9);
  }
}

TEST_P(IslandProperty, DeadZonesExistBetweenIslands) {
  const IslandMapper mapper = make();
  if (GetParam().coverage >= 1.0) return;
  int gaps_found = 0;
  for (std::size_t i = 0; i + 1 < mapper.entries(); ++i) {
    const int gap_lo = mapper.islands()[i + 1].high + 1;
    const int gap_hi = mapper.islands()[i].low - 1;
    if (gap_lo <= gap_hi) {
      const auto mid = static_cast<std::uint16_t>((gap_lo + gap_hi) / 2);
      EXPECT_FALSE(mapper.lookup(util::AdcCounts{mid}).has_value());
      ++gaps_found;
    }
  }
  EXPECT_GT(gaps_found, 0);
}

TEST_P(IslandProperty, CoverageFractionTracksConfig) {
  const IslandMapper mapper = make();
  // The realised coverage should be within quantisation slop of the
  // requested one (wide tolerance for few-count islands).
  EXPECT_NEAR(mapper.coverage_fraction(), GetParam().coverage,
              GetParam().entries > 20 ? 0.25 : 0.12);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IslandProperty,
    ::testing::Values(IslandCase{3, 0.6}, IslandCase{5, 0.6}, IslandCase{10, 0.6},
                      IslandCase{20, 0.6}, IslandCase{10, 0.3}, IslandCase{10, 0.9},
                      IslandCase{26, 0.6}, IslandCase{5, 1.0}));

TEST(IslandMapper, SingleEntryCoversRange) {
  SensorCurve curve;
  IslandMapper mapper(curve, 1, {});
  const auto hit = mapper.lookup(util::AdcCounts{mapper.islands()[0].centre});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 0u);
}

TEST(IslandMapper, NonLinearIslandWidthsInCounts) {
  // Near islands (high counts) must be wider in count space than far
  // islands — the direct consequence of the hyperbolic curve that the
  // paper's non-linear mapping exists to compensate.
  SensorCurve curve;
  IslandMapper mapper(curve, 10, {});
  const auto& islands = mapper.islands();
  const int near_width = islands.front().high - islands.front().low;
  const int far_width = islands.back().high - islands.back().low;
  EXPECT_GT(near_width, 3 * far_width);
}

TEST(IslandMapper, OutOfRangeCountsHitNothing) {
  SensorCurve curve;
  IslandMapper mapper(curve, 10, {});
  EXPECT_FALSE(mapper.lookup(util::AdcCounts{1023}).has_value());  // too close
  EXPECT_FALSE(mapper.lookup(util::AdcCounts{0}).has_value());     // too far
}

TEST(IslandMapper, IslandsPastTheLastCountAreEmpty) {
  // A curve with a negative offset reaches count 0 well before 60 cm,
  // so the far islands have no counts left. They must stay empty: a
  // [0,0] island would overlap the one that took count 0.
  SensorCurve::Params params;
  params.c = -0.3;
  const SensorCurve curve(params);
  IslandMapper::Config config;
  config.far = util::Centimeters{60.0};
  config.coverage = 1.0;
  const IslandMapper mapper(curve, 12, config);
  ASSERT_EQ(curve.counts_at(config.far).value, 0) << "the far end must run out of counts";
  const auto& islands = mapper.islands();
  for (int c = 0; c <= 1023; ++c) {
    const util::AdcCounts counts{static_cast<std::uint16_t>(c)};
    int owners = 0;
    for (const auto& island : islands) owners += island.low <= c && c <= island.high;
    EXPECT_LE(owners, 1) << "count " << c << " is in " << owners << " islands";
    EXPECT_EQ(mapper.lookup(counts), mapper.lookup_lut(counts)) << "count " << c;
  }
}

TEST(IslandMapper, SelectKeepsCurrentInGaps) {
  // "No selection or change happens if the device is held in a distance
  // between two of those islands."
  SensorCurve curve;
  IslandMapper mapper(curve, 5, {});
  const std::uint16_t first =
      mapper.probe(util::AdcCounts{mapper.islands()[2].centre}, IslandMapper::kLutGap).id;
  ASSERT_EQ(first, 2u);
  // A count in the gap between islands 2 and 3 selects nothing, so the
  // controller keeps island 2:
  const auto gap_counts =
      static_cast<std::uint16_t>((mapper.islands()[2].low + mapper.islands()[3].high) / 2);
  EXPECT_EQ(mapper.probe(util::AdcCounts{gap_counts}, first).id, IslandMapper::kLutGap);
}

TEST(IslandMapper, HysteresisResistsBoundaryFlicker) {
  SensorCurve curve;
  IslandMapper::Config config;
  config.hysteresis_counts = 6;
  IslandMapper mapper(curve, 5, config);
  const auto& islands = mapper.islands();
  const std::uint16_t current =
      mapper.probe(util::AdcCounts{islands[2].centre}, IslandMapper::kLutGap).id;
  ASSERT_EQ(current, 2u);
  // Nudge just past the island's low bound into the gap, then slightly
  // into island 3's territory but within hysteresis: selection holds.
  const auto jitter = static_cast<std::uint16_t>(islands[2].low - 3);
  EXPECT_EQ(mapper.probe(util::AdcCounts{jitter}, current).id, 2u);
  // Far beyond hysteresis: selection moves.
  const auto firmly_in_3 = islands[3].centre;
  EXPECT_EQ(mapper.probe(util::AdcCounts{firmly_in_3}, current).id, 3u);
}

TEST(IslandMapper, LookupCostConstantAndBelowSearch) {
  // The LUT made the per-sample cost a constant flash fetch; the
  // reference binary search's cost still grows with the entry count.
  SensorCurve curve;
  IslandMapper small(curve, 4, {});
  IslandMapper large(curve, 64, {});
  EXPECT_EQ(small.lookup_cost_cycles(), large.lookup_cost_cycles());
  EXPECT_LT(small.search_cost_cycles(), large.search_cost_cycles());
  EXPECT_LE(large.search_cost_cycles(), 12 + 6 * 14);  // log2(64)=6 probes
  EXPECT_LT(large.lookup_cost_cycles(), small.search_cost_cycles());
}

TEST(IslandMapper, ExhaustiveLookupConsistency) {
  // Property: for every possible ADC count, lookup either misses or
  // returns the unique island containing it.
  SensorCurve curve;
  IslandMapper mapper(curve, 13, {});
  for (int c = 0; c <= 1023; ++c) {
    const auto hit = mapper.lookup(util::AdcCounts{static_cast<std::uint16_t>(c)});
    int containing = -1;
    for (std::size_t i = 0; i < mapper.entries(); ++i) {
      const auto& island = mapper.islands()[i];
      if (c >= island.low && c <= island.high) {
        containing = static_cast<int>(i);
        break;
      }
    }
    if (containing < 0) {
      EXPECT_FALSE(hit.has_value()) << "count " << c;
    } else {
      ASSERT_TRUE(hit.has_value()) << "count " << c;
      EXPECT_EQ(static_cast<int>(*hit), containing) << "count " << c;
    }
  }
}

// --- calibration -----------------------------------------------------------------

TEST(Calibration, RecoversSensorCurveThroughAdc) {
  sensors::Gp2d120Model::Config sensor_config;
  sensor_config.output_noise_volts = 0.004;
  sensors::Gp2d120Model sensor(sensor_config, sim::Rng(5));
  double t = 0.0;
  auto read = [&](util::Centimeters d) {
    t += 0.05;
    const double v = sensor.output(d, util::Seconds{t}).value;
    return util::AdcCounts{static_cast<std::uint16_t>(v / 5.0 * 1023.0 + 0.5)};
  };
  const auto samples = sweep(util::Centimeters{4.0}, util::Centimeters{30.0}, 1.0, read, 4);
  const auto result = calibrate(samples);
  EXPECT_GT(result.r_squared, 0.995);          // Fig. 4: "idealized curve fitted"
  EXPECT_GT(result.log_log_r_squared, 0.97);   // Fig. 5: "nearly perfectly fit"
  EXPECT_NEAR(result.curve.params().a, 10.4, 1.5);
  // Usable range covers the paper's 4..30 cm.
  EXPECT_LE(result.usable_near.value, 4.0);
  EXPECT_GE(result.usable_far.value, 25.0);
}

TEST(Calibration, ExcludesNonMonotonicBranch) {
  // Samples below 4 cm lie on the rising branch; including them would
  // wreck the fit, so calibrate() must ignore them.
  sensors::Gp2d120Model::Config sensor_config;
  sensor_config.output_noise_volts = 0.0;
  sensors::Gp2d120Model sensor(sensor_config, sim::Rng(6));
  double t = 0.0;
  auto read = [&](util::Centimeters d) {
    t += 0.05;
    const double v = sensor.output(d, util::Seconds{t}).value;
    return util::AdcCounts{static_cast<std::uint16_t>(v / 5.0 * 1023.0 + 0.5)};
  };
  const auto samples = sweep(util::Centimeters{0.5}, util::Centimeters{30.0}, 0.5, read, 2);
  const auto result = calibrate(samples);
  EXPECT_GT(result.r_squared, 0.995);
}

TEST(IslandMapper, LutMatchesReferenceSearchExhaustively) {
  // Property (perf-refactor guard): the O(1) flash LUT and the reference
  // binary search are the same function on every representable ADC count,
  // across entry counts 2..64 (odd/even, powers of two, and the 26-entry
  // paper menu), coverages (touching islands, paper default, sparse), and
  // hysteresis settings. Large entry counts squeeze far islands into
  // empty (low > high) intervals, so those cases are inside the grid.
  SensorCurve curve;
  const double coverages[] = {0.3, 0.6, 1.0};
  const std::uint16_t hysteresis[] = {0, 6};
  // far = 30 is the paper's predicted range; far = 80 is the long-menu
  // regime where quantisation squeezes distant islands into empty
  // (low > high) intervals.
  const double fars[] = {30.0, 80.0};
  bool saw_empty = false;
  for (std::size_t entries = 2; entries <= 64; ++entries) {
    for (double coverage : coverages) {
      for (std::uint16_t h : hysteresis) {
        for (double far : fars) {
          IslandMapper::Config config;
          config.coverage = coverage;
          config.hysteresis_counts = h;
          config.far = util::Centimeters{far};
          IslandMapper mapper(curve, entries, config);
          for (const auto& island : mapper.islands()) saw_empty |= island.low > island.high;
          for (std::uint32_t c = 0; c < IslandMapper::kLutSize; ++c) {
            const util::AdcCounts counts{static_cast<std::uint16_t>(c)};
            ASSERT_EQ(mapper.lookup_lut(counts), mapper.lookup(counts))
                << "entries=" << entries << " coverage=" << coverage << " h=" << h
                << " far=" << far << " counts=" << c;
          }
          // Out-of-table counts (ADC clamps at 1023, but the API accepts
          // uint16_t): both implementations miss.
          EXPECT_EQ(mapper.lookup_lut(util::AdcCounts{1024}), std::nullopt);
          EXPECT_EQ(mapper.lookup(util::AdcCounts{1024}),
                    mapper.lookup_lut(util::AdcCounts{1024}));
        }
      }
    }
  }
  // Anti-vacuity: the grid genuinely exercised empty islands.
  EXPECT_TRUE(saw_empty);
}

TEST(IslandMapper, RebuildInPlaceMatchesFreshConstruction) {
  // Rebuilding a mapper in place (the menu-level-change path) yields
  // byte-for-byte the same table as constructing fresh.
  SensorCurve curve;
  IslandMapper reused(curve, 26, {});
  const std::size_t levels[] = {3, 26, 7, 64, 2, 26};
  for (std::size_t entries : levels) {
    IslandMapper::Config config;
    config.coverage = entries % 2 ? 0.6 : 1.0;
    reused.rebuild(curve, entries, config);
    IslandMapper fresh(curve, entries, config);
    ASSERT_EQ(reused.entries(), fresh.entries());
    for (std::size_t i = 0; i < fresh.entries(); ++i) {
      EXPECT_EQ(reused.islands()[i].low, fresh.islands()[i].low);
      EXPECT_EQ(reused.islands()[i].high, fresh.islands()[i].high);
      EXPECT_EQ(reused.islands()[i].centre, fresh.islands()[i].centre);
    }
    for (std::uint32_t c = 0; c < IslandMapper::kLutSize; ++c) {
      const util::AdcCounts counts{static_cast<std::uint16_t>(c)};
      ASSERT_EQ(reused.lookup_lut(counts), fresh.lookup_lut(counts));
    }
  }
}

TEST(Calibration, SweepAveragesRepeats) {
  int calls = 0;
  auto read = [&](util::Centimeters) {
    ++calls;
    return util::AdcCounts{static_cast<std::uint16_t>(500 + (calls % 2 ? 4 : -4))};
  };
  const auto samples = sweep(util::Centimeters{5.0}, util::Centimeters{7.0}, 1.0, read, 8);
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(calls, 24);
  for (const auto& s : samples) EXPECT_EQ(s.counts.value, 500);
}

}  // namespace
}  // namespace distscroll::core
