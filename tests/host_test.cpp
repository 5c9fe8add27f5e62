// Host ingest pipeline: property suite.
//
// The contracts held here, in dependency order:
//   * DeviceRegistry — per-device exactly-once admission, gap
//     accounting that settles exactly once streams drain;
//   * IngestQueue — bounded lanes, FIFO order, backpressure signal;
//   * SimDeviceLink — seq → report index across seq wraps and sheds;
//   * the DSTL columnar codec — lossless round trip, validation;
//   * run_host_ingest — full-stack invariants under fault injection
//     (zero accepted-frame corruption, full recovery within grace,
//     overload shedding), and BIT-IDENTITY of the result (DSTL bytes +
//     metrics JSON) across producer thread counts, pinned the same way
//     fleet_test.cpp pins FleetEngine;
//   * the golden artifact tests/golden/canonical_host_ingest.dstl — a
//     scripted 8-device lossy session, byte-compared every run.
//     Regenerate after an INTENTIONAL change (review the .jsonl diff):
//
//       DISTSCROLL_REGEN_GOLDEN=1 ./build/tests/test_host
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "host/columnar.h"
#include "host/device_registry.h"
#include "host/host_pipeline.h"
#include "host/ingest_queue.h"
#include "host/sim_link.h"
#include "obs/metrics.h"
#include "sim/random.h"
#include "wireless/packet.h"

namespace {

using namespace distscroll;
using host::CompactRecord;
using host::DeviceRegistry;
using Verdict = host::DeviceRegistry::Verdict;

// --- DeviceRegistry -------------------------------------------------------

TEST(DeviceRegistry, InOrderStreamIsAllAccepted) {
  DeviceRegistry registry(4);
  for (int i = 0; i < 300; ++i) {  // wraps the 8-bit seq space
    const auto decision = registry.admit(1, static_cast<std::uint8_t>(i));
    EXPECT_EQ(decision.verdict, Verdict::Accept);
    EXPECT_EQ(decision.gap_delta, 0);
  }
  EXPECT_EQ(registry.accepted(), 300u);
  EXPECT_EQ(registry.gaps(), 0u);
  EXPECT_EQ(registry.duplicates(), 0u);
  EXPECT_EQ(registry.devices_seen(), 1u);
  EXPECT_EQ(registry.stats(1).accepted, 300u);
}

TEST(DeviceRegistry, ForwardJumpCountsGapsAndLateFrameFillsThem) {
  DeviceRegistry registry(1);
  EXPECT_EQ(registry.admit(0, 0).verdict, Verdict::Accept);
  const auto jump = registry.admit(0, 3);  // skips 1 and 2
  EXPECT_EQ(jump.verdict, Verdict::Accept);
  EXPECT_EQ(jump.gap_delta, 2);
  EXPECT_EQ(registry.gaps(), 2u);
  // Late frame 1 fills one hole.
  EXPECT_EQ(registry.admit(0, 1).verdict, Verdict::AcceptReordered);
  EXPECT_EQ(registry.gaps(), 1u);
  EXPECT_EQ(registry.reordered(), 1u);
  // Its retransmitted copy is a duplicate.
  EXPECT_EQ(registry.admit(0, 1).verdict, Verdict::Duplicate);
  EXPECT_EQ(registry.admit(0, 2).verdict, Verdict::AcceptReordered);
  EXPECT_EQ(registry.gaps(), 0u);
  EXPECT_EQ(registry.accepted(), 4u);
}

TEST(DeviceRegistry, PreBaselineLateFrameNeverUnderflowsGapCount) {
  // The device's FIRST delivered frame is seq 1 (seq 0 delayed in
  // flight). Seq 0 then arriving late fills a hole that was never
  // counted — the counter must saturate at zero, not wrap.
  DeviceRegistry registry(1);
  EXPECT_EQ(registry.admit(0, 1).verdict, Verdict::Accept);
  EXPECT_EQ(registry.gaps(), 0u);
  EXPECT_EQ(registry.admit(0, 0).verdict, Verdict::AcceptReordered);
  EXPECT_EQ(registry.gaps(), 0u);
  EXPECT_EQ(registry.stats(0).gaps, 0u);
}

TEST(DeviceRegistry, DevicesAreIndependent) {
  DeviceRegistry registry(3);
  EXPECT_EQ(registry.admit(0, 200).verdict, Verdict::Accept);
  // Device 2 starting at 0 is NOT 56 frames behind device 0.
  EXPECT_EQ(registry.admit(2, 0).verdict, Verdict::Accept);
  EXPECT_EQ(registry.gaps(), 0u);
  // A duplicate on device 0 does not touch device 2.
  EXPECT_EQ(registry.admit(0, 200).verdict, Verdict::Duplicate);
  EXPECT_EQ(registry.stats(2).duplicates, 0u);
  EXPECT_EQ(registry.devices_seen(), 2u);
}

TEST(DeviceRegistry, BeyondHorizonAndUnknownDeviceAreRejected) {
  DeviceRegistry registry(2);
  EXPECT_EQ(registry.admit(0, 100).verdict, Verdict::Accept);
  // 64+ behind the highest: indistinguishable from an ancient duplicate.
  EXPECT_EQ(registry.admit(0, 36).verdict, Verdict::TooOld);
  EXPECT_EQ(registry.admit(0, 37).verdict, Verdict::AcceptReordered);  // 63 behind: inside
  // A device id past max_devices never grows state (hostile input).
  EXPECT_EQ(registry.admit(9, 0).verdict, Verdict::TooOld);
  EXPECT_EQ(registry.too_old(), 2u);
  EXPECT_EQ(registry.devices_seen(), 1u);
}

// --- IngestQueue ----------------------------------------------------------

TEST(IngestQueue, BoundedLanesFifoAndBackpressure) {
  host::IngestQueue queue(2, 3);
  host::RawRecord record;
  for (std::uint64_t i = 0; i < 3; ++i) {
    record.t_us = i;
    ASSERT_TRUE(queue.try_push(0, record));
  }
  record.t_us = 99;
  EXPECT_FALSE(queue.try_push(0, record));  // lane 0 full: backpressure
  EXPECT_TRUE(queue.try_push(1, record));   // lane 1 independent
  EXPECT_EQ(queue.depth(), 4u);
  EXPECT_EQ(queue.free(0), 0u);

  std::vector<host::RawRecord> out(2);
  ASSERT_EQ(queue.pop_batch(0, out), 2u);
  EXPECT_EQ(out[0].t_us, 0u);  // oldest first
  EXPECT_EQ(out[1].t_us, 1u);
  EXPECT_EQ(queue.free(0), 2u);
  ASSERT_EQ(queue.pop_batch(0, out), 1u);
  EXPECT_EQ(out[0].t_us, 2u);
  EXPECT_EQ(queue.pop_batch(0, out), 0u);
  // Freed capacity is reusable (ring wraps).
  for (std::uint64_t i = 0; i < 3; ++i) {
    record.t_us = 10 + i;
    ASSERT_TRUE(queue.try_push(0, record));
  }
  ASSERT_EQ(queue.pop_batch(0, out), 2u);
  EXPECT_EQ(out[0].t_us, 10u);
}

// The ring wraps by compare: at capacities 1, 3 and 512, random runs of
// pushes and batch pops (each up to one past capacity) stay FIFO, signal
// a full lane exactly when a model queue is at capacity, and leave the
// other lane alone, across many wraps.
TEST(IngestQueue, InterleavedPushPopWrapsAroundInOrder) {
  for (const std::size_t capacity : {std::size_t{1}, std::size_t{3}, std::size_t{512}}) {
    host::IngestQueue queue(2, capacity);
    std::deque<std::uint64_t> model;
    std::vector<host::RawRecord> out(capacity + 1);
    sim::Rng rng(capacity);
    const int most = static_cast<int>(capacity) + 1;
    std::uint64_t next = 0;
    host::RawRecord record;
    for (std::size_t step = 0; step < 40 + 4 * capacity; ++step) {
      for (int pushes = rng.uniform_int(0, most); pushes > 0; --pushes) {
        record.t_us = next;
        const bool pushed = queue.try_push(1, record);
        ASSERT_EQ(pushed, model.size() < capacity) << "capacity " << capacity;
        if (pushed) model.push_back(next++);
      }
      const auto want = static_cast<std::size_t>(rng.uniform_int(0, most));
      const std::size_t popped = queue.pop_batch(1, std::span(out).first(want));
      ASSERT_EQ(popped, std::min(want, model.size())) << "capacity " << capacity;
      for (std::size_t i = 0; i < popped; ++i) {
        ASSERT_EQ(out[i].t_us, model.front()) << "capacity " << capacity;
        model.pop_front();
      }
      ASSERT_EQ(queue.size(1), model.size());
      ASSERT_EQ(queue.free(1), capacity - model.size());
      ASSERT_EQ(queue.size(0), 0u);
    }
    EXPECT_GT(next, 3 * capacity) << "the ring wrapped";
  }
}

// --- SimDeviceLink ---------------------------------------------------------

TEST(SimDeviceLink, IndexForSeqMatchesARingWrittenOnEverySendAcrossWrapsAndSheds) {
  // A link keeps no seq → index ring until its first shed. Its answers
  // must still equal those of a ring written on every accepted send
  // (zeros where nothing was written), for every seq, in every window:
  // past a seq wrap before the first shed, and past two more after it.
  host::IngestQueue lanes(/*lanes=*/1, /*lane_capacity=*/64);
  const double period_s = 1.0 / 38.0;
  host::SimDeviceLink link(/*device_id=*/0, /*lane=*/0, lanes, wireless::ArqConfig{},
                           host::LinkFaultConfig{}, period_s, /*duration_s=*/1e9, sim::Rng(77));
  std::array<std::uint64_t, 256> reference{};
  std::array<host::RawRecord, 64> drained;
  std::uint64_t mismatches = 0;
  double now_s = 0.0;
  const auto run_window = [&](bool ack) {
    // Half a report period: at most one telemetry tick per window, so
    // the counters say whether that tick's report went out and as what.
    now_s += period_s / 2.0;
    const std::uint64_t index = link.reports_offered();
    const std::uint64_t sent = link.sender().frames_accepted();
    link.step_window(now_s);
    if (link.sender().frames_accepted() > sent) reference[sent & 0xFF] = index;
    for (std::size_t n = 0; (n = lanes.pop_batch(0, drained)) > 0;) {
      for (std::size_t i = 0; i < n; ++i) {
        const auto view = wireless::parse_wire_frame({drained[i].wire.data(), drained[i].len});
        if (view && ack) link.queue_ack(view->seq);
      }
    }
    for (std::size_t seq = 0; seq < reference.size(); ++seq) {
      if (link.index_for_seq(static_cast<std::uint8_t>(seq)) != reference[seq]) ++mismatches;
    }
  };

  while (link.sender().frames_accepted() < 300) run_window(/*ack=*/true);
  EXPECT_EQ(link.reports_shed(), 0u);
  EXPECT_EQ(mismatches, 0u);
  // Three seconds without acks: the ARQ queue fills and the device sheds.
  for (int w = 0; w < static_cast<int>(3.0 / (period_s / 2.0)); ++w) run_window(/*ack=*/false);
  EXPECT_GT(link.reports_shed(), 0u);
  EXPECT_EQ(mismatches, 0u);
  while (link.sender().frames_accepted() < 3 * 256 + 100) run_window(/*ack=*/true);
  EXPECT_EQ(mismatches, 0u);
  // Sheds made report index and send count diverge.
  EXPECT_EQ(link.reports_offered(), link.sender().frames_accepted() + link.reports_shed());
}

TEST(SimDeviceLink, StaysSmall) {
  // A host ingest run holds one link per device in one array; the
  // 256-entry seq → index map (2 KiB) lives outside it and only on
  // devices that shed.
  EXPECT_LE(sizeof(host::SimDeviceLink), 640u);
}

// --- DSTL columnar codec --------------------------------------------------

std::vector<CompactRecord> sample_records() {
  std::vector<CompactRecord> records;
  sim::Rng rng(77);
  std::uint64_t t = 1'000'000;
  for (int i = 0; i < 500; ++i) {
    CompactRecord record;
    // Mostly monotone timestamps with occasional back-steps (a
    // lane-merged stream is only near-sorted).
    t += static_cast<std::uint64_t>(rng.uniform_int(0, 40'000));
    record.t_us = (i % 17 == 0 && t > 50'000)
                      ? t - static_cast<std::uint64_t>(rng.uniform_int(0, 30'000))
                      : t;
    record.device_id = static_cast<std::uint16_t>(rng.uniform_int(0, 9999));
    record.seq = static_cast<std::uint8_t>(i);
    record.state.adc_counts = static_cast<std::uint16_t>(rng.uniform_int(0, 1023));
    record.state.menu_depth = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    record.state.cursor_index = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    record.state.level_size = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    record.state.buttons = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    records.push_back(record);
  }
  return records;
}

TEST(Columnar, RoundTripsExactly) {
  const auto records = sample_records();
  const auto container = host::encode_dstl(records, 7);
  std::uint16_t session = 0;
  const auto decoded = host::decode_dstl(container, &session);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(session, 7);
  EXPECT_EQ(*decoded, records);
}

TEST(Columnar, EmptyContainerRoundTrips) {
  const auto container = host::encode_dstl({}, 3);
  const auto decoded = host::decode_dstl(container);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->empty());
}

TEST(Columnar, ExtremeFieldValuesSurvive) {
  std::vector<CompactRecord> records(3);
  records[0].t_us = 0xFFFFFFFFFFFFFFFFull;  // max time first (huge negative delta next)
  records[0].device_id = 0xFFFF;
  records[0].state.adc_counts = 0xFFFF;
  records[1].t_us = 0;
  records[2].t_us = 0xFFFFFFFFFFFFFFFFull;
  const auto container = host::encode_dstl(records, 0);
  const auto decoded = host::decode_dstl(container);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, records);
}

TEST(Columnar, StreamingWriterMatchesOneShot) {
  const auto records = sample_records();
  host::ColumnarWriter writer(7);
  for (const auto& record : records) writer.append(record);
  EXPECT_EQ(writer.records(), records.size());
  EXPECT_EQ(writer.finish(), host::encode_dstl(records, 7));
}

TEST(Columnar, CompressionBeatsRowEncoding) {
  // The whole point of the columnar layout: a near-periodic telemetry
  // stream packs far below the 16-byte row lower bound.
  std::vector<CompactRecord> records;
  for (int i = 0; i < 1000; ++i) {
    CompactRecord record;
    record.t_us = 26'315u * static_cast<std::uint64_t>(i);  // 38 Hz cadence
    record.device_id = static_cast<std::uint16_t>(i % 8);
    record.seq = static_cast<std::uint8_t>(i / 8);
    record.state.adc_counts = static_cast<std::uint16_t>(500 + (i % 11));
    records.push_back(record);
  }
  const auto container = host::encode_dstl(records, 0);
  EXPECT_LT(container.size(), records.size() * 12);
}

TEST(Columnar, RejectsTamperingAndTruncation) {
  const auto records = sample_records();
  const auto container = host::encode_dstl(records, 7);
  // Any single corrupted byte fails the CRC-32.
  for (std::size_t i = 0; i < container.size(); i += 37) {
    auto mutated = container;
    mutated[i] ^= 0x40;
    EXPECT_FALSE(host::decode_dstl(mutated).has_value()) << "byte " << i;
  }
  // Every truncation fails (CRC32 covers the full payload).
  for (std::size_t n = 0; n < container.size(); n += 101) {
    EXPECT_FALSE(host::decode_dstl({container.data(), n}).has_value()) << "prefix " << n;
  }
  EXPECT_FALSE(host::decode_dstl({}).has_value());
}

TEST(Columnar, JsonlRenderingIsExact) {
  CompactRecord record;
  record.t_us = 26312;
  record.device_id = 3;
  record.seq = 12;
  record.state.adc_counts = 512;
  record.state.menu_depth = 1;
  record.state.cursor_index = 4;
  record.state.level_size = 16;
  record.state.buttons = 0;
  std::ostringstream out;
  host::write_jsonl(out, {&record, 1});
  EXPECT_EQ(out.str(),
            "{\"t_us\":26312,\"device\":3,\"seq\":12,\"adc\":512,"
            "\"depth\":1,\"cursor\":4,\"level\":16,\"buttons\":0}\n");
}

// --- the full pipeline ----------------------------------------------------

host::HostIngestConfig lossy_config(std::size_t devices, std::size_t threads) {
  host::HostIngestConfig config;
  config.devices = devices;
  config.lanes = 4;
  config.lane_capacity = 512;
  config.duration_s = 1.0;
  config.threads = threads;
  config.faults.frame_loss = 0.01;
  config.faults.bit_flip = 0.002;
  config.faults.reorder = 0.005;
  config.faults.ack_loss = 0.005;
  config.base_seed = 424242;
  return config;
}

TEST(HostIngest, LosslessFleetDeliversEveryReportExactlyOnce) {
  host::HostIngestConfig config;
  config.devices = 32;
  config.duration_s = 1.0;
  const auto result = host::run_host_ingest(config);
  const auto& stats = result.stats;
  EXPECT_TRUE(stats.complete);
  EXPECT_GT(stats.reports_offered, 1000u);
  EXPECT_EQ(stats.frames_accepted, stats.reports_offered);
  EXPECT_EQ(stats.reports_shed, 0u);
  EXPECT_EQ(stats.frames_duplicate, 0u);
  EXPECT_EQ(stats.sequence_gaps, 0u);
  EXPECT_EQ(stats.content_mismatches, 0u);
  EXPECT_EQ(stats.arq_retransmissions, 0u);  // timeout > ack turnaround: no spurious retx
  EXPECT_EQ(stats.devices_seen, 32u);
  EXPECT_EQ(result.records.size(), stats.frames_accepted);
  // The container decodes back to exactly the accepted stream.
  const auto decoded = host::decode_dstl(result.dstl);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, result.records);
}

TEST(HostIngest, LossyFleetRecoversEverythingWithZeroCorruption) {
  // The tentpole acceptance criterion, scaled to test runtime: every
  // offered report is accepted exactly once despite loss + corruption +
  // reordering + ack loss, and every accepted frame matches what the
  // device generated, bit for bit.
  const auto result = host::run_host_ingest(lossy_config(64, 1));
  const auto& stats = result.stats;
  EXPECT_TRUE(stats.complete);
  // Faults actually fired.
  EXPECT_GT(stats.link_frames_lost, 0u);
  EXPECT_GT(stats.link_frames_corrupted, 0u);
  EXPECT_GT(stats.link_frames_reordered, 0u);
  EXPECT_GT(stats.arq_retransmissions, 0u);
  // Full recovery: ARQ re-delivered every lost/corrupted frame.
  EXPECT_EQ(stats.frames_accepted, stats.reports_offered);
  EXPECT_EQ(stats.sequence_gaps, 0u);
  // ZERO accepted-frame corruption.
  EXPECT_EQ(stats.content_mismatches, 0u);
  // Every corrupted frame that reached the host was caught by CRC (a
  // corrupted frame held in a reorder slot at shutdown may never arrive).
  EXPECT_LE(stats.frames_crc_rejected, stats.link_frames_corrupted);
  EXPECT_GE(stats.frames_crc_rejected + 64u, stats.link_frames_corrupted);
  // Duplicates exist (lost acks force re-sends) and were all absorbed.
  EXPECT_GT(stats.frames_duplicate, 0u);
}

TEST(HostIngest, ResultIsBitIdenticalAcrossThreadCounts) {
  // The determinism contract: threads only change which worker steps a
  // lane — DSTL bytes, record streams and the metrics registry JSON all
  // byte-match at 1, 2 and 8 threads.
  obs::MetricsRegistry metrics1;
  const auto base = host::run_host_ingest(lossy_config(48, 1), &metrics1);
  const std::string json1 = metrics1.to_json_fields();
  ASSERT_FALSE(base.dstl.empty());
  for (const std::size_t threads : {2u, 8u}) {
    obs::MetricsRegistry metrics;
    const auto other = host::run_host_ingest(lossy_config(48, threads), &metrics);
    EXPECT_EQ(other.dstl, base.dstl) << threads << " threads";
    EXPECT_EQ(other.records, base.records) << threads << " threads";
    EXPECT_EQ(metrics.to_json_fields(), json1) << threads << " threads";
    EXPECT_EQ(other.stats.frames_accepted, base.stats.frames_accepted);
    EXPECT_EQ(other.stats.max_queue_depth, base.stats.max_queue_depth);
    EXPECT_EQ(other.stats.windows, base.stats.windows);
  }
}

TEST(HostIngest, LaneCountDoesNotChangeResultWithAmpleCapacity) {
  // Devices are sharded onto lanes contiguously and stepped in id
  // order, and lanes drain in ascending order — so when no lane ever
  // backpressures, the merged stream is device-id order regardless of
  // how many lanes carried it. Lane count only shapes results through
  // capacity (see OverloadShedsAtTheDeviceNeverCorrupts).
  auto config = lossy_config(48, 1);
  const auto base = host::run_host_ingest(config);
  ASSERT_EQ(base.stats.backpressure_stalls, 0u);
  config.lanes = 7;
  const auto other = host::run_host_ingest(config);
  EXPECT_EQ(other.stats.frames_accepted, base.stats.frames_accepted);
  EXPECT_EQ(other.dstl, base.dstl);
  // More lanes than devices: some lanes carry none.
  config.lanes = 64;
  const auto sparse = host::run_host_ingest(config);
  EXPECT_EQ(sparse.stats.frames_accepted, base.stats.frames_accepted);
  EXPECT_EQ(sparse.dstl, base.dstl);
}

TEST(HostIngest, OverloadShedsAtTheDeviceNeverCorrupts) {
  // Lanes far too small for the offered load: backpressure reaches the
  // ARQ queue, which fills and sheds NEW reports at the device (the
  // bounded-RAM contract). Everything that survives is still perfect.
  host::HostIngestConfig config;
  config.devices = 128;
  config.lanes = 2;
  config.lane_capacity = 24;
  config.arq.queue_capacity = 8;  // 8 frames of device RAM, then shed
  config.duration_s = 0.5;
  const auto result = host::run_host_ingest(config);
  const auto& stats = result.stats;
  EXPECT_GT(stats.backpressure_stalls, 0u);
  EXPECT_GT(stats.reports_shed, 0u);
  EXPECT_EQ(stats.frames_accepted, stats.reports_offered - stats.reports_shed);
  EXPECT_EQ(stats.content_mismatches, 0u);
  EXPECT_EQ(stats.frames_duplicate, 0u);
  // The queue never grew past its configured bound.
  EXPECT_LE(stats.max_queue_depth, config.lanes * config.lane_capacity);
}

TEST(HostIngest, MetricsRegistryCarriesTheIngestCounters) {
  obs::MetricsRegistry metrics;
  const auto result = host::run_host_ingest(lossy_config(16, 1), &metrics);
  EXPECT_EQ(metrics.counter("host_frames_accepted").value(), result.stats.frames_accepted);
  EXPECT_EQ(metrics.counter("host_frames_dropped_crc").value(),
            result.stats.frames_crc_rejected);
  EXPECT_EQ(metrics.counter("host_frames_duplicate").value(), result.stats.frames_duplicate);
  EXPECT_EQ(metrics.counter("host_content_mismatches").value(), 0u);
  // Latency histogram saw every accepted frame, with plausible values
  // (arrival-to-drain is bounded by a window plus the grace tail).
  const auto& latency = metrics.histogram("host_ingest_latency");
  EXPECT_EQ(latency.count(), result.stats.frames_accepted);
  EXPECT_GE(latency.sum(), 0.0);
  const std::string json = metrics.to_json_fields();
  EXPECT_NE(json.find("host_queue_depth"), std::string::npos);
  EXPECT_NE(json.find("host_ingest_latency_count"), std::string::npos);
}

// --- golden artifact ------------------------------------------------------

const std::string kGoldenPath =
    std::string(DISTSCROLL_GOLDEN_DIR) + "/canonical_host_ingest.dstl";

bool regen_requested() {
  const char* env = std::getenv("DISTSCROLL_REGEN_GOLDEN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/// The scripted 8-device lossy session behind the golden artifact.
/// Frozen: changing ANY field re-rolls the committed bytes.
host::HostIngestConfig canonical_config() {
  host::HostIngestConfig config;
  config.devices = 8;
  config.lanes = 2;
  config.lane_capacity = 64;
  config.duration_s = 1.0;
  config.faults.frame_loss = 0.01;
  config.faults.bit_flip = 0.002;
  config.faults.reorder = 0.005;
  config.faults.ack_loss = 0.005;
  config.base_seed = 0xD157;
  config.session_id = host::kCanonicalHostIngestSession;
  config.threads = 1;
  return config;
}

class GoldenHostIngest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (regen_requested()) {
      const auto fresh = host::run_host_ingest(canonical_config());
      ASSERT_TRUE(host::write_dstl_file(kGoldenPath, fresh.dstl))
          << "cannot write " << kGoldenPath;
      ASSERT_TRUE(host::write_jsonl_file(kGoldenPath + ".jsonl", fresh.records));
    }
  }
};

TEST_F(GoldenHostIngest, CanonicalSessionMatchesGoldenByteForByte) {
  const auto golden = host::read_dstl_file(kGoldenPath);
  ASSERT_TRUE(golden.has_value())
      << "missing golden artifact " << kGoldenPath
      << " — regenerate with DISTSCROLL_REGEN_GOLDEN=1";
  const auto fresh = host::run_host_ingest(canonical_config());
  EXPECT_EQ(fresh.dstl, *golden) << "host ingest behaviour drifted from the golden session";
}

TEST_F(GoldenHostIngest, GoldenDecodesToANonTrivialCleanSession) {
  const auto golden = host::read_dstl_file(kGoldenPath);
  ASSERT_TRUE(golden.has_value());
  std::uint16_t session = 0;
  const auto records = host::decode_dstl(*golden, &session);
  ASSERT_TRUE(records.has_value()) << "golden artifact does not parse";
  EXPECT_EQ(session, host::kCanonicalHostIngestSession);
  // 8 devices x 38 Hz x 1 s, minus start-phase truncation.
  EXPECT_GT(records->size(), 250u);
  std::vector<bool> seen(8, false);
  for (const auto& record : *records) {
    ASSERT_LT(record.device_id, 8u);
    seen[record.device_id] = true;
    EXPECT_LE(record.state.adc_counts, 1023u);
  }
  for (int d = 0; d < 8; ++d) EXPECT_TRUE(seen[static_cast<std::size_t>(d)]) << "device " << d;
}

}  // namespace
