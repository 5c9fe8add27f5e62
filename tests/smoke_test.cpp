// End-to-end smoke: build a device over the phone menu, run a scripted
// session, and check whole-device invariants on the structured trace —
// cursor stays inside menu bounds at every display flush, island
// selection and dead-zone residence stay mutually exclusive, the sim
// clock never runs backwards, and no display flush is lost.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <optional>
#include <set>
#include <vector>

#include "core/distscroll_device.h"
#include "menu/phone_menu.h"
#include "obs/trace_io.h"
#include "obs/tracer.h"

namespace distscroll {
namespace {

TEST(Smoke, DeviceBootsAndScrolls) {
  auto menu_root = menu::make_phone_menu();
  sim::EventQueue queue;
  core::DistScrollDevice::Config config;
  core::DistScrollDevice device(config, *menu_root, queue, sim::Rng(42));
  device.power_on();

  // Hold the device at a middle distance for a second of simulated time.
  device.set_distance_provider([](util::Seconds) { return util::Centimeters{17.0}; });
  queue.run_until(util::Seconds{1.0});

  EXPECT_GT(device.board().mcu().cycles(), 0u);
  EXPECT_GT(device.redraws(), 0u);
  EXPECT_TRUE(device.controller().selection().has_value());
}

// Scripted session shared by the invariant tests: a hand sweeping back
// and forth across the whole scroll range plus a select and a back
// press, traced under the full category mask.
class SmokeInvariants : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!obs::Tracer::compiled_in()) {
      GTEST_SKIP() << "tracing compiled out (DISTSCROLL_TRACING=OFF)";
    }
    menu_root_ = menu::make_phone_menu();
    device_ = std::make_unique<core::DistScrollDevice>(
        core::DistScrollDevice::Config{}, *menu_root_, queue_, sim::Rng(42));
    device_->attach_tracer(&tracer_);
    device_->set_distance_provider([](util::Seconds now) {
      // 8..26 cm sweep, slow enough for selections to settle.
      return util::Centimeters{17.0 + 9.0 * std::sin(now.value * 1.7)};
    });
    device_->power_on();
    queue_.schedule_at(util::Seconds{1.2}, [this] { device_->select_button().press(); });
    queue_.schedule_at(util::Seconds{1.28}, [this] { device_->select_button().release(); });
    queue_.schedule_at(util::Seconds{2.4}, [this] { device_->back_button().press(); });
    queue_.schedule_at(util::Seconds{2.48}, [this] { device_->back_button().release(); });
    queue_.run_until(util::Seconds{4.0});
    events_ = tracer_.snapshot();
    ASSERT_FALSE(events_.empty());
  }

  sim::EventQueue queue_;
  obs::Tracer tracer_{1 << 16, obs::kCatAll};
  std::unique_ptr<menu::MenuNode> menu_root_;
  std::unique_ptr<core::DistScrollDevice> device_;
  std::vector<obs::TraceEvent> events_;
};

TEST_F(SmokeInvariants, CursorStaysInMenuBoundsAtEveryFlush) {
  std::size_t flushes = 0;
  for (const obs::TraceEvent& event : events_) {
    if (event.kind != obs::EventKind::DisplayFlush) continue;
    ++flushes;
    // a = cursor index, b = level size: the cursor must address a real
    // entry of the level being drawn.
    EXPECT_LT(event.a, event.b) << "flush at t=" << event.time_s;
  }
  EXPECT_GT(flushes, 10u);
}

TEST_F(SmokeInvariants, IslandAndDeadZoneStayExclusive) {
  // Replays the controller FSM from its trace: a selection is either
  // resting on an island or holding through a dead zone, never both;
  // leaves always pair with the island they leave; a same-island
  // re-entry only follows a dead-zone excursion.
  std::optional<std::uint32_t> island;
  bool in_gap = false;
  bool pending_enter = false;  // an IslandLeave must be followed by IslandEnter
  std::size_t transitions = 0;
  for (const obs::TraceEvent& event : events_) {
    switch (event.kind) {
      case obs::EventKind::IslandEnter:
        ++transitions;
        if (island && *island == event.a) {
          EXPECT_TRUE(in_gap) << "re-entered island " << event.a
                              << " without a dead-zone excursion at t=" << event.time_s;
        }
        island = event.a;
        in_gap = false;
        pending_enter = false;
        break;
      case obs::EventKind::IslandLeave:
        ++transitions;
        ASSERT_TRUE(island.has_value()) << "leave with no selection at t=" << event.time_s;
        EXPECT_EQ(*island, event.a) << "left an island we were not on at t=" << event.time_s;
        EXPECT_FALSE(pending_enter);
        pending_enter = true;
        break;
      case obs::EventKind::DeadZoneCross:
        ++transitions;
        ASSERT_TRUE(island.has_value());
        EXPECT_EQ(*island, event.a);
        EXPECT_FALSE(in_gap) << "crossed into a dead zone while already in one at t="
                             << event.time_s;
        EXPECT_FALSE(pending_enter);
        in_gap = true;
        break;
      default:
        break;
    }
  }
  EXPECT_FALSE(pending_enter) << "trace ended between IslandLeave and IslandEnter";
  EXPECT_GT(transitions, 5u) << "sweep session produced no island activity";
}

TEST_F(SmokeInvariants, SimClockIsMonotoneAcrossTheTrace) {
  for (std::size_t i = 1; i < events_.size(); ++i) {
    ASSERT_GE(events_[i].time_s, events_[i - 1].time_s)
        << "clock ran backwards between events " << i - 1 << " and " << i;
  }
  EXPECT_GE(events_.front().time_s, 0.0);
  EXPECT_LE(events_.back().time_s, 4.0 + 1e-9);
}

TEST_F(SmokeInvariants, NoDisplayFlushIsDropped) {
  EXPECT_EQ(tracer_.dropped(), 0u);
  std::size_t flushes = 0;
  for (const obs::TraceEvent& event : events_) {
    flushes += (event.kind == obs::EventKind::DisplayFlush);
  }
  // Every redraw the firmware performed must have its flush event in the
  // trace — one DisplayFlush per redraw, none lost.
  EXPECT_EQ(flushes, device_->redraws());
}

TEST_F(SmokeInvariants, ButtonScriptReachesTheMenuLayer) {
  std::size_t presses = 0, releases = 0;
  for (const obs::TraceEvent& event : events_) {
    if (event.kind != obs::EventKind::ButtonEdge) continue;
    (event.b != 0 ? presses : releases) += 1;
  }
  EXPECT_EQ(presses, 2u);
  EXPECT_EQ(releases, 2u);
  // The select at 1.2 s activated an entry; depth went down and back up.
  EXPECT_FALSE(device_->selections().empty());
}

TEST_F(SmokeInvariants, EveryKindTheTraceFormatAcceptsIsRecorded) {
  // A kind the reader accepts but no run records is a kind nobody can
  // see working: each kind byte obs::deserialize loads must show up in
  // this full-mask session.
  std::set<int> recorded;
  for (const obs::TraceEvent& event : events_) recorded.insert(static_cast<int>(event.kind));
  int accepted = 0;
  for (int byte = 0; byte < 256; ++byte) {
    obs::Trace probe;
    probe.events.push_back({0.0, static_cast<obs::EventKind>(byte), 0, 0});
    if (!obs::deserialize(obs::serialize(probe))) continue;
    ++accepted;
    EXPECT_EQ(recorded.count(byte), 1u)
        << "trace kind " << byte << " (" << obs::kind_name(static_cast<obs::EventKind>(byte))
        << ") loads from a trace file, but no test run records it";
  }
  EXPECT_GT(accepted, 0);
}

}  // namespace
}  // namespace distscroll
