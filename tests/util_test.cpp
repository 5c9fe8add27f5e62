// Unit tests for util: ring buffer, fixed point, CRC, stats/fitting,
// CSV, ASCII plot.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <vector>

#include "sim/random.h"
#include "util/ascii_plot.h"
#include "util/crc.h"
#include "util/csv.h"
#include "util/ring_buffer.h"
#include "util/rounding.h"
#include "util/seq_window.h"
#include "util/stats.h"
#include "util/units.h"

namespace distscroll::util {
namespace {

// --- units -----------------------------------------------------------------

TEST(Units, CentimetersArithmetic) {
  const Centimeters a{10.0}, b{4.0};
  EXPECT_DOUBLE_EQ((a + b).value, 14.0);
  EXPECT_DOUBLE_EQ((a - b).value, 6.0);
  EXPECT_DOUBLE_EQ((a * 2.0).value, 20.0);
  EXPECT_DOUBLE_EQ((a / 2.0).value, 5.0);
  EXPECT_LT(b, a);
}

TEST(Units, AdcCountsCompare) {
  EXPECT_LT(AdcCounts{100}, AdcCounts{200});
  EXPECT_EQ(AdcCounts{512}, AdcCounts{512});
}

// --- ring buffer -----------------------------------------------------------

TEST(RingBuffer, StartsEmpty) {
  RingBuffer<int, 4> rb;
  EXPECT_TRUE(rb.empty());
  EXPECT_FALSE(rb.full());
  EXPECT_EQ(rb.size(), 0u);
  EXPECT_EQ(rb.pop(), std::nullopt);
  EXPECT_EQ(rb.front(), std::nullopt);
  EXPECT_EQ(rb.back(), std::nullopt);
}

TEST(RingBuffer, FifoOrder) {
  RingBuffer<int, 4> rb;
  for (int i = 1; i <= 4; ++i) EXPECT_TRUE(rb.try_push(i));
  EXPECT_TRUE(rb.full());
  EXPECT_FALSE(rb.try_push(5));
  for (int i = 1; i <= 4; ++i) EXPECT_EQ(rb.pop(), i);
  EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, WrapsAroundManyTimes) {
  // A full ring popped and refilled one slot at a time walks its head
  // around the storage many times, in FIFO order throughout.
  RingBuffer<int, 3> rb;
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(rb.try_push(i));
  for (int i = 3; i < 100; ++i) {
    EXPECT_EQ(rb.pop(), i - 3);
    EXPECT_TRUE(rb.try_push(i));
  }
  EXPECT_EQ(rb.front(), 97);
  EXPECT_EQ(rb.back(), 99);
}

// --- sequence window -------------------------------------------------------

TEST(SeqWindow, VerdictTable) {
  using V = SeqWindow::Verdict;
  struct Step {
    int seq;  // -1: start over on a fresh window
    V verdict;
    std::uint16_t gap_delta;
    const char* why;
  };
  const Step steps[] = {
      {10, V::Accept, 0, "first frame"},
      {11, V::Accept, 0, "in order"},
      {12, V::Accept, 0, "in order"},
      {15, V::Accept, 2, "forward jump skips 13, 14"},
      {13, V::AcceptReordered, 0, "late fill"},
      {13, V::Duplicate, 0, "duplicate"},
      {14, V::AcceptReordered, 0, "late fill"},
      {78, V::Accept, 62, "ahead 63: the mask shifts"},
      {15, V::Duplicate, 0, "behind 63, seen before the shift"},
      {16, V::AcceptReordered, 0, "behind 62, not seen"},
      {14, V::TooOld, 0, "behind 64"},
      {142, V::Accept, 63, "ahead 64: the mask clears"},
      {79, V::AcceptReordered, 0, "behind 63 after the clear"},
      {78, V::TooOld, 0, "behind 64"},
      {13, V::Accept, 126, "ahead 127 (142 -> 13 wraps)"},
      {141, V::TooOld, 0, "ahead 128 reads as 128 behind"},
      {206, V::AcceptReordered, 0, "behind 63"},
      {205, V::TooOld, 0, "behind 64"},
      {-1, V::Accept, 0, "fresh window"},
      {254, V::Accept, 0, "first frame of the fresh window"},
      {255, V::Accept, 0, "in order"},
      {0, V::Accept, 0, "255 -> 0 wraps forward"},
      {1, V::Accept, 0, "in order"},
      {255, V::Duplicate, 0, "behind 2 across the wrap"},
  };
  SeqWindow window;
  for (const Step& step : steps) {
    if (step.seq < 0) {
      window = SeqWindow{};
      EXPECT_FALSE(window.started());
      continue;
    }
    const auto decision = window.admit(static_cast<std::uint8_t>(step.seq));
    EXPECT_EQ(decision.verdict, step.verdict) << step.seq << ": " << step.why;
    EXPECT_EQ(decision.gap_delta, step.gap_delta) << step.seq << ": " << step.why;
    EXPECT_TRUE(window.started());
  }
}

// --- exact rounding ----------------------------------------------------------

/// round_nonneg must equal std::lround wherever the hot paths call it:
/// finite values already clamped to [0, max].
void expect_matches_lround(double x) {
  EXPECT_EQ(round_nonneg(x), static_cast<std::size_t>(std::lround(x))) << std::hexfloat << x;
}

TEST(RoundNonneg, MatchesLroundAtEveryHalfAndItsNeighbours) {
  for (int k = 0; k <= 2048; ++k) {
    const double half = k + 0.5;
    expect_matches_lround(half);
    expect_matches_lround(std::nextafter(half, 0.0));
    expect_matches_lround(std::nextafter(half, 1e300));
  }
  // The largest double below 0.5: a naive floor(x + 0.5) rounds it up.
  expect_matches_lround(0.49999999999999994);
  expect_matches_lround(0.0);
  expect_matches_lround(1023.0);
}

TEST(RoundNonneg, MatchesLroundOnRandomDoubles) {
  sim::Rng rng(31);
  for (int i = 0; i < 1'000'000; ++i) {
    expect_matches_lround(rng.uniform(0.0, 0x1p31));
  }
}

TEST(Adc10Counts, ScalesAddsNoiseClampsAndRounds) {
  EXPECT_EQ(adc10_counts(0.0, 0.0).value, 0);
  EXPECT_EQ(adc10_counts(5.0, 0.0).value, 1023);
  EXPECT_EQ(adc10_counts(2.5, 0.0).value, 512);   // 511.5 rounds half up
  EXPECT_EQ(adc10_counts(2.5, -0.2).value, 511);  // the noise is added before rounding
  EXPECT_EQ(adc10_counts(-1.0, 0.0).value, 0);    // clamped below
  EXPECT_EQ(adc10_counts(6.0, 0.0).value, 1023);  // clamped above
  EXPECT_EQ(adc10_counts(5.0, 3.0).value, 1023);  // noise cannot leave the range
}

TEST(Adc10Counts, VoltsInvertsEveryCount) {
  for (int c = 0; c <= 1023; ++c) {
    const AdcCounts counts{static_cast<std::uint16_t>(c)};
    EXPECT_EQ(adc10_counts(adc10_volts(counts).value, 0.0), counts) << c;
  }
}

// --- CRC ---------------------------------------------------------------------

TEST(Crc, Crc8KnownProperties) {
  const std::uint8_t empty[] = {0};
  EXPECT_EQ(crc8({empty, 0}), 0x00);  // empty message: init value
  const std::uint8_t data[] = {0x01, 0x02, 0x03};
  const std::uint8_t c = crc8(data);
  // Appending the CRC makes the residue stable: recompute differs from 0
  // only for a corrupted stream; here just check determinism and change
  // detection.
  std::uint8_t tampered[] = {0x01, 0x02, 0x07};
  EXPECT_NE(crc8(tampered), c);
  EXPECT_EQ(crc8(data), c);
}

// Check values from the CRC catalogue convention ("123456789"). 0xA2 is
// the non-reflected poly-0x31 CRC the wire format uses; the reflected
// Dallas/Maxim 1-Wire CRC over the same polynomial gives 0xA1.
TEST(Crc, Crc8KnownVector) {
  const std::uint8_t msg[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc8(msg), 0xA2);
}

TEST(Crc, Crc32KnownVector) {
  const std::uint8_t msg[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(msg), 0xCBF43926u);
  EXPECT_EQ(crc32({msg, 0}), 0x00000000u);  // empty: init ^ xorout
}

// Bit-at-a-time references: the definitions the table-driven CRCs must
// reproduce exactly.
std::uint8_t crc8_bitwise(std::span<const std::uint8_t> data) {
  std::uint8_t crc = 0x00;
  for (std::uint8_t byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = static_cast<std::uint8_t>((crc & 0x80u) ? (crc << 1) ^ 0x31u : crc << 1);
    }
  }
  return crc;
}

std::uint32_t crc32_bitwise(std::span<const std::uint8_t> data) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::uint8_t byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc, TableDrivenMatchesBitwiseAtEveryLengthAndAlignment) {
  // Every length 0..64 covers whole 8-byte slices plus each tail length;
  // the start offsets 0..7 put the slices at every alignment.
  sim::Rng rng(0xC0FFEE);
  std::vector<std::uint8_t> buffer(64 + 8);
  for (int round = 0; round < 4; ++round) {
    for (std::uint8_t& b : buffer) b = static_cast<std::uint8_t>(rng.next_u64());
    for (std::size_t offset = 0; offset < 8; ++offset) {
      for (std::size_t len = 0; len <= 64; ++len) {
        const std::span<const std::uint8_t> data(buffer.data() + offset, len);
        ASSERT_EQ(crc8(data), crc8_bitwise(data)) << "offset " << offset << " len " << len;
        ASSERT_EQ(crc32(data), crc32_bitwise(data)) << "offset " << offset << " len " << len;
      }
    }
  }
}

// --- stats -------------------------------------------------------------------

TEST(Stats, SummarizeBasics) {
  const double values[] = {1.0, 2.0, 3.0, 4.0, 5.0};
  const Summary s = summarize(values);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
}

TEST(Stats, SummarizeEmptyAndSingle) {
  EXPECT_EQ(summarize({}).count, 0u);
  const double one[] = {7.0};
  const Summary s = summarize(one);
  EXPECT_DOUBLE_EQ(s.mean, 7.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Stats, PercentileInterpolates) {
  const double values[] = {10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(values, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(values, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(values, 0.5), 25.0);
}

TEST(Stats, LinearFitExact) {
  const double xs[] = {0.0, 1.0, 2.0, 3.0};
  const double ys[] = {1.0, 3.0, 5.0, 7.0};
  const LinearFit fit = fit_linear(xs, ys);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(Stats, LinearFitNoisy) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 50; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 * i - 2.0 + ((i % 2) ? 0.5 : -0.5));
  }
  const LinearFit fit = fit_linear(xs, ys);
  EXPECT_NEAR(fit.slope, 3.0, 0.01);
  EXPECT_GT(fit.r_squared, 0.999);
}

TEST(Stats, HyperbolicFitRecoversParameters) {
  // y = 10.4/(x + 0.6) + 0.0 — the GP2D120 idealised curve.
  std::vector<double> xs, ys;
  for (double x = 4.0; x <= 30.0; x += 1.0) {
    xs.push_back(x);
    ys.push_back(10.4 / (x + 0.6));
  }
  const HyperbolicFit fit = fit_hyperbolic(xs, ys);
  EXPECT_NEAR(fit.a, 10.4, 0.2);
  EXPECT_NEAR(fit.k, 0.6, 0.1);
  EXPECT_NEAR(fit.c, 0.0, 0.02);
  EXPECT_GT(fit.r_squared, 0.9999);
}

TEST(Stats, PowerFitRecoversExponent) {
  std::vector<double> xs, ys;
  for (double x = 1.0; x <= 30.0; x += 1.0) {
    xs.push_back(x);
    ys.push_back(5.0 * std::pow(x, -0.9));
  }
  const PowerFit fit = fit_power(xs, ys);
  EXPECT_NEAR(fit.A, 5.0, 0.05);
  EXPECT_NEAR(fit.b, -0.9, 0.01);
  EXPECT_GT(fit.r_squared, 0.9999);
}

TEST(Stats, RSquaredPerfectAndPoor) {
  const double obs[] = {1.0, 2.0, 3.0};
  const double good[] = {1.0, 2.0, 3.0};
  const double bad[] = {3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(r_squared(obs, good), 1.0);
  EXPECT_LT(r_squared(obs, bad), 0.0);  // worse than the mean predictor
}

TEST(Stats, WelchTSeparatesDistinctMeans) {
  std::vector<double> a, b;
  for (int i = 0; i < 30; ++i) {
    a.push_back(10.0 + 0.1 * (i % 5));
    b.push_back(12.0 + 0.1 * (i % 5));
  }
  EXPECT_LT(welch_t(a, b), -2.0);
  EXPECT_GT(welch_t(b, a), 2.0);
  EXPECT_NEAR(welch_t(a, a), 0.0, 1e-12);
}

// --- CSV ---------------------------------------------------------------------

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = "test_csv_out.csv";
  {
    CsvWriter csv(path, {"a", "b"});
    ASSERT_TRUE(csv.ok());
    csv.row({1.5, 2.5});
    csv.row({std::vector<std::string>{"x,y", "has \"quote\""}});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1.5,2.5");
  std::getline(in, line);
  EXPECT_EQ(line, "\"x,y\",\"has \"\"quote\"\"\"");
  std::remove(path.c_str());
}

// --- ASCII plot ----------------------------------------------------------------

TEST(AsciiPlot, PlotsPointsAndFit) {
  const double xs[] = {1.0, 2.0, 3.0};
  const double ys[] = {1.0, 4.0, 9.0};
  PlotOptions options;
  options.title = "T";
  const std::string plot = ascii_plot(xs, ys, xs, ys, options);
  EXPECT_NE(plot.find('T'), std::string::npos);
  // Coincident point+fit cells render as '#'.
  EXPECT_NE(plot.find('#'), std::string::npos);
}

TEST(AsciiPlot, EmptyDataSafe) {
  const std::string plot = ascii_plot({}, {}, {}, {}, {});
  EXPECT_EQ(plot, "(no data)\n");
}

TEST(AsciiPlot, LogAxisSkipsNonPositive) {
  const double xs[] = {-1.0, 1.0, 10.0, 100.0};
  const double ys[] = {5.0, 1.0, 2.0, 3.0};
  PlotOptions options;
  options.log_x = true;
  const std::string plot = ascii_plot(xs, ys, {}, {}, options);
  EXPECT_NE(plot.find('*'), std::string::npos);  // positive points plotted
}

}  // namespace
}  // namespace distscroll::util
