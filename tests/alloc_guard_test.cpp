// Runtime complement to the no-alloc-markers lint rule: AllocGuard
// interposes the global allocator and DS_ASSERT_NO_ALLOC aborts the
// process (file:line) if the wrapped scope allocates. These tests pin
// the allocation-free claims the session kernel makes on its hot paths:
// Tracer::record past ring capacity, EventQueue schedule/dispatch at
// recycled depth, the device firmware sample loop, the ARQ receiver's
// ack path, and a host ingest device link's construction and its
// send/drain/ack/retransmit cycle. Two more pin what a whole host
// ingest run and a whole warm fleet run allocate.
//
// The interposer is compiled out under sanitizer builds (they own the
// allocator), so every assertion skips when it is not linked in.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/distscroll_device.h"
#include "host/host_pipeline.h"
#include "host/ingest_queue.h"
#include "host/sim_link.h"
#include "menu/menu_builder.h"
#include "obs/tracer.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "study/fleet_study.h"
#include "util/alloc_guard.h"
#include "wireless/arq.h"
#include "wireless/host_logger.h"
#include "wireless/packet.h"

namespace distscroll {
namespace {

#define SKIP_WITHOUT_INTERPOSER()                                      \
  do {                                                                 \
    if (!util::alloc_interposer_linked())                              \
      GTEST_SKIP() << "allocator interposer compiled out (sanitizer)"; \
  } while (0)

TEST(AllocGuard, CountsARealAllocation) {
  SKIP_WITHOUT_INTERPOSER();
  util::AllocGuard guard{__FILE__, __LINE__};
  // Direct operator-new call: a new-EXPRESSION here could legally be
  // elided at -O2 (paired allocation elision), which would make this
  // positive control — and with it the no-alloc tests — vacuous.
  void* p = ::operator new(64);
  ::operator delete(p);
  EXPECT_GE(guard.allocations(), 1u);
  EXPECT_GE(guard.deallocations(), 1u);
  EXPECT_GE(guard.bytes(), 64u);
}

TEST(AllocGuard, TracerRecordIsAllocationFree) {
  SKIP_WITHOUT_INTERPOSER();
  obs::Tracer tracer(/*capacity=*/64);
  DS_ASSERT_NO_ALLOC {
    // 4x capacity: exercises both the fill and the wrap/overwrite path.
    for (std::uint32_t i = 0; i < 256; ++i) {
      tracer.record(obs::EventKind::AdcRead, i, i * 2);
      tracer.record_at(0.5 + i, obs::EventKind::SensorMeasure, i, 7);
    }
  }
  EXPECT_EQ(tracer.size(), 64u);
  EXPECT_EQ(tracer.dropped(), 512u - 64u);
}

TEST(AllocGuard, EventQueueScheduleDispatchIsAllocationFreeWhenWarm) {
  SKIP_WITHOUT_INTERPOSER();
  sim::EventQueue queue;
  int fired = 0;
  // Warm-up: push the calendar to its working depth once so the heap
  // and slot table own their capacity, then drain.
  for (int i = 0; i < 32; ++i) {
    queue.schedule_after(util::Seconds{1e-3 * (i + 1)}, [&fired] { ++fired; });
  }
  queue.run_all();
  ASSERT_EQ(fired, 32);

  // Steady state: schedule/cancel/dispatch at the same depth recycles
  // slots and heap storage. Callbacks must fit std::function's small
  // buffer (a single reference capture does) or the test rightly fails.
  DS_ASSERT_NO_ALLOC {
    for (int round = 0; round < 8; ++round) {
      sim::EventQueue::Handle cancelled{};
      for (int i = 0; i < 32; ++i) {
        const auto h =
            queue.schedule_after(util::Seconds{1e-3 * (i + 1)}, [&fired] { ++fired; });
        if (i == 0) cancelled = h;
      }
      queue.cancel(cancelled);
      queue.run_all();
    }
  }
  EXPECT_EQ(fired, 32 + 8 * 31);
}

TEST(AllocGuard, DeviceSampleLoopIsAllocationFreeWhenWarm) {
  SKIP_WITHOUT_INTERPOSER();
  auto menu_root = menu::make_flat_menu(5);
  sim::EventQueue queue;
  core::DistScrollDevice device({}, *menu_root, queue, sim::Rng(99));
  // Constant distance: the cursor settles during warm-up, after which
  // the firmware loop (ADC sample -> curve -> island -> telemetry
  // frame) must not touch the heap. Display redraws are excluded by
  // construction — they only fire on cursor change.
  device.set_distance_provider([](util::Seconds) { return util::Centimeters{17.0}; });
  device.power_on();
  queue.run_until(util::Seconds{2.0});  // warm-up: settle + first frames

  const std::size_t cursor_before = device.cursor().index();
  DS_ASSERT_NO_ALLOC {
    queue.run_until(util::Seconds{4.0});
  }
  EXPECT_EQ(device.cursor().index(), cursor_before);
}

TEST(AllocGuard, ArqReceiverAcksWithoutAllocating) {
  SKIP_WITHOUT_INTERPOSER();
  // Payload-less frames, seq 0..255: each pass delivers and acks every
  // one. The decoder's window is a fixed array and frames reach their
  // handler as views into it, so a warm receiver and a warm logger
  // decode, dedupe, ack and log the whole stream without the heap.
  std::vector<std::uint8_t> stream;
  for (int seq = 0; seq < 256; ++seq) {
    std::array<std::uint8_t, wireless::kMaxEncodedFrame> wire;
    const std::size_t n =
        wireless::encode_into(wireless::FrameType::State, static_cast<std::uint8_t>(seq), {}, wire);
    stream.insert(stream.end(), wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(n));
  }
  wireless::ArqReceiver receiver;
  std::uint64_t ack_bytes = 0;
  const auto count_acks = [&ack_bytes](std::span<const std::uint8_t> wire) {
    ack_bytes += wire.size();
    return true;
  };
  receiver.set_ack_sink(count_acks);
  wireless::HostLogger logger;
  for (const std::uint8_t byte : stream) {  // warm-up
    receiver.on_byte(byte);
    logger.on_byte(byte);
  }

  DS_ASSERT_NO_ALLOC {
    for (const std::uint8_t byte : stream) {
      receiver.on_byte(byte);
      logger.on_byte(byte);
    }
  }
  EXPECT_EQ(receiver.acks_sent(), 512u);
  EXPECT_EQ(receiver.frames_delivered(), 512u);
  EXPECT_EQ(ack_bytes, 512u * 5u);  // SYNC LEN TYPE SEQ CRC
  EXPECT_EQ(logger.frames_received(), 512u);
  EXPECT_EQ(logger.sequence_gaps(), 0u);
}

TEST(AllocGuard, HostIngestRunStaysWithinItsAllocationBudget) {
  SKIP_WITHOUT_INTERPOSER();
  // perfbench's host_ingest run at one thread (the pipeline then steps
  // every lane on this thread, where the guard counts). A run allocates
  // its lanes, registry, the DSTL writer's columns, the link array and
  // the accepted stream once each; past that, each device's ARQ queue and ack list
  // grow a few times, and only a device that sheds allocates its
  // seq → index map.
  host::HostIngestConfig config;
  config.devices = 2000;
  config.lanes = 8;
  config.lane_capacity = 512;
  config.duration_s = 1.0;
  config.faults.frame_loss = 0.01;
  config.faults.bit_flip = 0.002;
  config.faults.reorder = 0.005;
  config.faults.ack_loss = 0.005;
  config.session_id = 7;
  config.base_seed = 1;
  config.threads = 1;
  util::AllocGuard guard{__FILE__, __LINE__};
  const host::HostIngestResult result = host::run_host_ingest(config);
  const std::uint64_t bytes = guard.bytes();
  const std::uint64_t allocations = guard.allocations();
  EXPECT_LE(bytes, 5'700'000u);
  EXPECT_LE(allocations, 6'450u);
  EXPECT_TRUE(result.stats.complete);
  EXPECT_EQ(result.stats.reports_shed, 0u);
  EXPECT_EQ(result.records.size(), result.stats.frames_accepted);
}

TEST(AllocGuard, FleetRunStaysWithinItsAllocationBudget) {
  SKIP_WITHOUT_INTERPOSER();
  // perfbench's fleet_distscroll run at one thread (no pool: every chunk
  // folds on this thread, where the guard counts), measured warm — the
  // first run grows the thread-local trial runner. What is left is per
  // run: the engine's chunk slots (one per chunk the run has, here 4),
  // the global aggregate, and the trial kernels' per-participant state.
  // Measured 1.52 MB in 9 187 allocations; building a full window of 32
  // slots took 3.39 MB in 10 172.
  study::FleetStudyConfig config;
  config.participants = 1024;
  config.trials_per_participant = 4;
  config.menu_size = 40;
  config.chunk = 256;
  config.base_seed = 1;
  config.threads = 1;
  (void)study::run_fleet(config);
  util::AllocGuard guard{__FILE__, __LINE__};
  const study::FleetRunResult result = study::run_fleet(config);
  const std::uint64_t bytes = guard.bytes();
  const std::uint64_t allocations = guard.allocations();
  EXPECT_LE(bytes, 1'600'000u);
  EXPECT_LE(allocations, 9'550u);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.aggregates.participants(), config.participants);
}

TEST(AllocGuard, HostLinkSendDrainAckRetransmitIsAllocationFreeWhenWarm) {
  SKIP_WITHOUT_INTERPOSER();
  host::IngestQueue lanes(/*lanes=*/1, /*lane_capacity=*/64);
  host::LinkFaultConfig faults;
  faults.frame_loss = 0.05;
  faults.bit_flip = 0.02;
  faults.reorder = 0.02;
  faults.ack_loss = 0.05;
  // Building a link allocates nothing: a host ingest run builds one per
  // device.
  std::optional<host::SimDeviceLink> built;
  util::AllocGuard construct{__FILE__, __LINE__};
  built.emplace(/*device_id=*/0, /*lane=*/0, lanes, wireless::ArqConfig{}, faults,
                /*report_period_s=*/1.0 / 38.0, /*duration_s=*/1000.0, sim::Rng(5));
  EXPECT_EQ(construct.allocations(), 0u);
  host::SimDeviceLink& link = *built;
  // One pipeline window: the device produces, the consumer drains the
  // lane, CRC-checks each frame and queues an ack for every valid one.
  std::array<host::RawRecord, 16> drained;
  std::uint64_t acks_queued = 0;
  double now_s = 0.0;
  const auto run_window = [&](bool ack) {
    now_s += 0.05;
    link.step_window(now_s);
    for (std::size_t n = 0; (n = lanes.pop_batch(0, drained)) > 0;) {
      for (std::size_t i = 0; i < n; ++i) {
        const auto view = wireless::parse_wire_frame({drained[i].wire.data(), drained[i].len});
        if (view && ack) {
          link.queue_ack(view->seq);
          ++acks_queued;
        }
      }
    }
  };
  // Warm-up. Two seconds without acks fill the retransmit queue to its
  // capacity (shedding and retry exhaustion included), so it never
  // grows again; then twenty seconds of normal traffic take the
  // pending-ack list to its working depth. The link's deadlines are
  // plain data (a tick and the queue entries' retransmit deadlines), so
  // there is no calendar left to grow.
  for (int w = 0; w < 40; ++w) run_window(/*ack=*/false);
  ASSERT_EQ(link.pending(), wireless::ArqConfig{}.queue_capacity);
  for (int w = 0; w < 400; ++w) run_window(/*ack=*/true);

  const std::uint64_t offered_before = link.reports_offered();
  const std::uint64_t acks_before = acks_queued;
  const std::uint64_t retransmits_before = link.sender().retransmissions();
  DS_ASSERT_NO_ALLOC {
    for (int w = 0; w < 40; ++w) run_window(/*ack=*/true);
  }
  // The guarded windows exercised every stage of the cycle.
  EXPECT_GT(link.reports_offered(), offered_before);
  EXPECT_GT(acks_queued, acks_before);
  EXPECT_GT(link.sender().retransmissions(), retransmits_before);
}

}  // namespace
}  // namespace distscroll
