// Unit tests for the observability layer: Tracer ring semantics,
// MetricsRegistry instruments, trace binary/JSONL IO and the
// compare_traces diagnostics that the golden harness reports through.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/replay.h"
#include "obs/trace_event.h"
#include "obs/trace_io.h"
#include "obs/tracer.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "util/units.h"

namespace {

using namespace distscroll;

// --- Tracer -----------------------------------------------------------------

TEST(Tracer, RecordsInOrderWithManualTimestamps) {
  obs::Tracer tracer(8);
  tracer.record_at(0.5, obs::EventKind::CursorMove, 3, 1);
  tracer.record_at(0.75, obs::EventKind::DisplayFlush, 3, 9);

  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_DOUBLE_EQ(events[0].time_s, 0.5);
  EXPECT_EQ(events[0].kind, obs::EventKind::CursorMove);
  EXPECT_EQ(events[0].a, 3u);
  EXPECT_EQ(events[0].b, 1u);
  EXPECT_DOUBLE_EQ(events[1].time_s, 0.75);
  EXPECT_EQ(events[1].kind, obs::EventKind::DisplayFlush);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Tracer, RingOverwritesOldestAndCountsDropped) {
  obs::Tracer tracer(4);
  for (std::uint32_t i = 0; i < 10; ++i) {
    tracer.record_at(static_cast<double>(i), obs::EventKind::AdcRead, i, 0);
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first snapshot: the last 4 of 10 records survive.
  for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(events[i].a, 6u + i);
}

TEST(Tracer, CategoryMaskAndEnableSwitchFilter) {
  obs::Tracer tracer(16, obs::kCatScroll);
  tracer.record_at(0.0, obs::EventKind::IslandEnter, 1, 0);   // scroll: kept
  tracer.record_at(0.0, obs::EventKind::AdcRead, 2, 100);     // adc: masked
  tracer.record_at(0.0, obs::EventKind::ButtonEdge, 0, 1);     // input: masked
  EXPECT_EQ(tracer.size(), 1u);
  EXPECT_EQ(tracer.dropped(), 0u);  // masked events are filtered, not dropped

  // The full mask keeps what the scroll mask filtered.
  obs::Tracer all(16, obs::kCatAll);
  all.record_at(0.0, obs::EventKind::AdcRead, 2, 100);
  all.record_at(0.0, obs::EventKind::ButtonEdge, 0, 1);
  EXPECT_EQ(all.size(), 2u);
}

TEST(Tracer, BoundClockStampsFromSimTime) {
  sim::EventQueue queue;
  obs::Tracer tracer(8);
  tracer.bind_clock(queue);
  queue.schedule_at(util::Seconds{1.25}, [&] {
    tracer.record(obs::EventKind::ButtonEdge, 0, 1);
  });
  queue.run_all();
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_DOUBLE_EQ(events[0].time_s, 1.25);
}

// --- MetricsRegistry --------------------------------------------------------

TEST(MetricsRegistry, FindOrCreateReturnsStableReferences) {
  obs::MetricsRegistry registry;
  obs::Counter& ticks = registry.counter("ticks");
  obs::Gauge& util_gauge = registry.gauge("utilization");
  ticks.set(41);
  EXPECT_EQ(registry.counter("ticks").value(), 41u);  // same instrument by name
  util_gauge.set(0.5);
  EXPECT_DOUBLE_EQ(registry.gauge("utilization").value(), 0.5);
}

TEST(MetricsRegistry, RowsWalkRegistrationOrder) {
  obs::MetricsRegistry registry;
  registry.counter("b_first");
  registry.gauge("a_second");
  registry.histogram("c_third");
  const auto rows = registry.rows();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].name, "b_first");
  EXPECT_EQ(rows[1].name, "a_second");
  EXPECT_EQ(rows[2].name, "c_third");
  EXPECT_EQ(rows[0].histogram, nullptr);
  EXPECT_NE(rows[2].histogram, nullptr);
}

TEST(MetricsRegistry, JsonFieldsRenderEveryInstrument) {
  obs::MetricsRegistry registry;
  registry.counter("cells").set(7);
  registry.gauge("load").set(0.25);
  registry.histogram("lat").record(1e-3);
  const std::string json = registry.to_json_fields(2);
  EXPECT_NE(json.find("\"cells\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"load\":"), std::string::npos);
  EXPECT_NE(json.find("\"lat_count\": 1"), std::string::npos);
}

TEST(Histogram, Log2BucketingMatchesDocumentedRanges) {
  obs::Histogram hist;  // first bucket [0, 0.5 ms)
  hist.record(0.1e-3);   // bucket 0
  hist.record(0.6e-3);   // [0.5, 1) ms -> bucket 1
  hist.record(1.5e-3);   // [1, 2) ms -> bucket 2
  hist.record(1e9);      // overflow -> last bucket
  EXPECT_EQ(hist.count(), 4u);
  EXPECT_EQ(hist.buckets()[0], 1u);
  EXPECT_EQ(hist.buckets()[1], 1u);
  EXPECT_EQ(hist.buckets()[2], 1u);
  EXPECT_EQ(hist.buckets()[obs::Histogram::kBuckets - 1], 1u);
  EXPECT_DOUBLE_EQ(hist.bucket_low(1), 0.5e-3);
  EXPECT_DOUBLE_EQ(hist.bucket_low(2), 1.0e-3);
  EXPECT_NE(hist.render().find("ms"), std::string::npos);
}

/// The bucket record() counts `value` in, read back from a cleared histogram.
std::size_t recorded_bucket(obs::Histogram& hist, double value) {
  hist.clear();
  hist.record(value);
  const auto& buckets = hist.buckets();
  return static_cast<std::size_t>(std::find(buckets.begin(), buckets.end(), 1u) - buckets.begin());
}

/// The documented rule, spelled with log2.
std::size_t log2_bucket(double value, double first_bucket) {
  if (!(value > first_bucket)) return 0;
  const auto bucket = static_cast<std::size_t>(std::floor(std::log2(value / first_bucket))) + 1;
  return std::min(bucket, obs::Histogram::kBuckets - 1);
}

// record() takes the bucket from the quotient's IEEE exponent away from
// the bucket edges; it must agree with floor(log2(value / first)) + 1
// everywhere: at first_bucket itself, at and within 4 ulps of every
// edge (the overflow edge included), and at 10^5 random values.
TEST(Histogram, ExponentBucketEqualsLog2RuleAtEdgesAndAtRandom) {
  for (const double first : {0.5e-3, 1.0, 0.1, 3e-7}) {
    obs::Histogram::Config config;
    config.first_bucket = first;
    obs::Histogram hist(config);
    std::vector<double> values{first, 0.0, -1.0};
    for (std::size_t i = 1; i <= obs::Histogram::kBuckets; ++i) {
      const double edge = std::ldexp(first, static_cast<int>(i) - 1);
      values.push_back(edge);
      double up = edge;
      double down = edge;
      for (int ulps = 1; ulps <= 4; ++ulps) {
        up = std::nextafter(up, HUGE_VAL);
        down = std::nextafter(down, 0.0);
        values.push_back(up);
        values.push_back(down);
      }
    }
    sim::Rng rng(0x4157);
    for (int i = 0; i < 100000; ++i) {
      values.push_back(first * std::exp2(rng.uniform01() * 20.0 - 2.0));  // 1/4 .. 2^18 firsts
    }
    for (const double value : values) {
      ASSERT_EQ(recorded_bucket(hist, value), log2_bucket(value, first))
          << std::hexfloat << value << " first " << first;
    }
  }
}

// --- trace IO ---------------------------------------------------------------

obs::Trace sample_trace() {
  obs::Trace trace;
  trace.session_id = 7;
  trace.category_mask = obs::kCatReplay;
  trace.events.push_back({0.02, obs::EventKind::AdcRead, 2, 512});
  trace.events.push_back({0.04, obs::EventKind::CursorMove, 1, 0});
  trace.events.push_back({0.04, obs::EventKind::DisplayFlush, 1, 9});
  return trace;
}

TEST(TraceIo, SerializeRoundTripsExactly) {
  const obs::Trace trace = sample_trace();
  const auto bytes = obs::serialize(trace);
  EXPECT_EQ(bytes.size(), 24u + 17u * trace.events.size());
  EXPECT_EQ(bytes[0], 'D');
  EXPECT_EQ(bytes[1], 'S');
  EXPECT_EQ(bytes[2], 'T');
  EXPECT_EQ(bytes[3], 'R');
  const auto parsed = obs::deserialize(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, trace);
}

TEST(TraceIo, DeserializeRejectsCorruption) {
  auto bytes = obs::serialize(sample_trace());
  auto bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_FALSE(obs::deserialize(bad_magic).has_value());

  auto truncated = bytes;
  truncated.resize(truncated.size() - 1);
  EXPECT_FALSE(obs::deserialize(truncated).has_value());

  auto bad_version = bytes;
  bad_version[4] = 0xFF;
  EXPECT_FALSE(obs::deserialize(bad_version).has_value());
}

TEST(TraceIo, DeserializeRejectsUnknownKindBytes) {
  // Kind byte of the last event (24-byte header, 17-byte events, the
  // kind after the 8-byte time). 8 was a retired ARQ kind and 13 the
  // retired scheduler-overrun kind; 255 was never one.
  const auto bytes = obs::serialize(sample_trace());
  const std::size_t kind_at = bytes.size() - 17 + 8;
  for (const std::uint8_t kind : {std::uint8_t{0}, std::uint8_t{8}, std::uint8_t{11},
                                  std::uint8_t{13}, std::uint8_t{14}, std::uint8_t{255}}) {
    auto bad_kind = bytes;
    bad_kind[kind_at] = kind;
    EXPECT_FALSE(obs::deserialize(bad_kind).has_value()) << "kind byte " << int{kind};
  }
  // Every defined kind still loads.
  for (const std::uint8_t kind : {1, 2, 3, 4, 5, 6, 7, 12}) {
    auto good = bytes;
    good[kind_at] = kind;
    EXPECT_TRUE(obs::deserialize(good).has_value()) << "kind byte " << int{kind};
  }
}

TEST(TraceIo, FileRoundTrip) {
  const obs::Trace trace = sample_trace();
  const std::string path = ::testing::TempDir() + "/obs_test_roundtrip.trace";
  ASSERT_TRUE(obs::write_trace(path, trace));
  const auto loaded = obs::read_trace(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, trace);
  std::remove(path.c_str());
}

TEST(TraceIo, JsonlOneObjectPerLine) {
  std::ostringstream out;
  obs::write_jsonl(out, sample_trace());
  const std::string text = out.str();
  std::size_t lines = 0;
  for (const char c : text) lines += (c == '\n');
  EXPECT_EQ(lines, 3u);
  EXPECT_NE(text.find("\"kind\":\"adc_read\""), std::string::npos);
  EXPECT_NE(text.find("\"kind\":\"display_flush\""), std::string::npos);
}

// --- compare_traces ---------------------------------------------------------

TEST(CompareTraces, MatchesIdenticalTraces) {
  const obs::CompareResult cmp = obs::compare_traces(sample_trace(), sample_trace());
  EXPECT_TRUE(cmp.match);
  EXPECT_TRUE(cmp.detail.empty());
}

TEST(CompareTraces, DiagnosesFirstDivergingEvent) {
  const obs::Trace expected = sample_trace();
  obs::Trace actual = expected;
  actual.events[1].a = 99;
  const obs::CompareResult cmp = obs::compare_traces(expected, actual);
  EXPECT_FALSE(cmp.match);
  EXPECT_EQ(cmp.first_divergence, 1u);
  EXPECT_FALSE(cmp.detail.empty());
}

TEST(CompareTraces, DiagnosesLengthAndHeaderMismatch) {
  const obs::Trace expected = sample_trace();
  obs::Trace shorter = expected;
  shorter.events.pop_back();
  const obs::CompareResult cmp = obs::compare_traces(expected, shorter);
  EXPECT_FALSE(cmp.match);
  EXPECT_EQ(cmp.first_divergence, shorter.events.size());

  obs::Trace remasked = expected;
  remasked.category_mask = obs::kCatAll;
  EXPECT_FALSE(obs::compare_traces(expected, remasked).match);
}

}  // namespace
