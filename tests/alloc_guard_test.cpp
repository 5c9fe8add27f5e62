// Runtime complement to the no-alloc-markers lint rule: AllocGuard
// interposes the global allocator and DS_ASSERT_NO_ALLOC aborts the
// process (file:line) if the wrapped scope allocates. These tests pin
// the allocation-free claims the session kernel makes on its hot paths:
// Tracer::record past ring capacity, EventQueue schedule/dispatch at
// recycled depth, the device firmware sample loop, warm pooled session
// reuse, and a host ingest device link's send/drain/ack/retransmit
// cycle.
//
// The interposer is compiled out under sanitizer builds (they own the
// allocator), so every assertion skips when it is not linked in.
#include <gtest/gtest.h>

#include <array>
#include <memory>

#include "core/distscroll_device.h"
#include "host/ingest_queue.h"
#include "host/sim_link.h"
#include "menu/menu_builder.h"
#include "obs/tracer.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "study/device_pool.h"
#include "util/alloc_guard.h"
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
  tracer.set_time(0.25);
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

TEST(AllocGuard, PooledSessionReuseIsAllocationFreeWhenWarm) {
  SKIP_WITHOUT_INTERPOSER();
  auto menu_root = menu::make_flat_menu(5);
  study::DeviceSession session;
  core::DistScrollDevice::Config config;

  // First acquire constructs the whole prototype (cold, allocates) and
  // a short powered run gives the calendar its working depth.
  auto run_once = [&](core::DistScrollDevice& device) {
    device.set_distance_provider([](util::Seconds) { return util::Centimeters{17.0}; });
    device.power_on();
    session.queue().run_until(util::Seconds{1.0});
    device.power_off();
  };
  run_once(session.acquire(config, *menu_root, sim::Rng(7)));
  ASSERT_TRUE(session.warm());

  // Warm reuse — the reason DeviceSession exists: clearing the calendar
  // and resetting the device in place must not allocate.
  core::DistScrollDevice* recycled = nullptr;
  DS_ASSERT_NO_ALLOC {
    recycled = &session.acquire(config, *menu_root, sim::Rng(7));
  }
  ASSERT_NE(recycled, nullptr);
  run_once(*recycled);  // and the recycled device still works
  EXPECT_LT(recycled->cursor().index(), 5u);
}

TEST(AllocGuard, HostLinkSendDrainAckRetransmitIsAllocationFreeWhenWarm) {
  SKIP_WITHOUT_INTERPOSER();
  host::IngestQueue lanes(/*lanes=*/1, /*lane_capacity=*/64);
  host::LinkFaultConfig faults;
  faults.frame_loss = 0.05;
  faults.bit_flip = 0.02;
  faults.reorder = 0.02;
  faults.ack_loss = 0.05;
  host::SimDeviceLink link(/*device_id=*/0, /*lane=*/0, lanes, wireless::ArqConfig{}, faults,
                           /*report_period_s=*/1.0 / 38.0, /*duration_s=*/1000.0, sim::Rng(5));
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
  // calendar to its working depth.
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
