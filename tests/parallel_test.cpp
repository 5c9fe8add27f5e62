// Tests for the parallel experiment engine: ThreadPool correctness,
// SweepRunner's determinism contract (bit-identical results at any
// thread count; the cell bodies draw normals, and gaussian() keeps no
// state between calls, so a cell's stream depends only on its fork), the
// timed_sweep bench harness contract, and the binary-heap event
// calendar's dispatch order and lazy cancellation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/distscroll_device.h"
#include "human/user_profile.h"
#include "menu/phone_menu.h"
#include "obs/tracer.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/thread_pool.h"
#include "study/device_pool.h"
#include "study/device_study.h"
#include "study/sweep_runner.h"
#include "util/csv.h"

namespace distscroll {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
      sim::ThreadPool pool(threads);
      constexpr std::size_t kCount = 1000;
      std::vector<std::atomic<int>> hits(kCount);
      pool.parallel_for(kCount, [&](std::size_t i) { hits[i].fetch_add(1); }, chunk);
      for (std::size_t i = 0; i < kCount; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads=" << threads
                                     << " chunk=" << chunk;
      }
    }
  }
}

TEST(ThreadPool, ZeroCountIsANoOp) {
  sim::ThreadPool pool(4);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ReusableAcrossJobs) {
  sim::ThreadPool pool(4);
  for (int job = 0; job < 50; ++job) {
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(100, [&](std::size_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 100u * 99u / 2u) << "job " << job;
  }
}

TEST(ThreadPool, SizeCountsCaller) {
  EXPECT_EQ(sim::ThreadPool(1).size(), 1u);
  EXPECT_EQ(sim::ThreadPool(8).size(), 8u);
  EXPECT_GE(sim::ThreadPool(0).size(), 1u);  // hardware default, at least the caller
}

// ---------------------------------------------------------------------------
// SweepRunner determinism contract

struct CellOut {
  std::uint64_t a = 0;
  double b = 0.0;

  friend bool operator==(const CellOut&, const CellOut&) = default;
};

CellOut sweep_body(std::size_t index, sim::Rng rng) {
  CellOut out;
  out.a = index * 1000003u + rng.uniform_int(0, 1 << 20);
  // Mix draws so any RNG-sharing bug between cells shows up.
  for (int i = 0; i < 16; ++i) out.b += rng.gaussian(0.0, 1.0) + rng.uniform(0.0, 1.0);
  return out;
}

TEST(SweepRunner, BitIdenticalAcrossThreadCounts) {
  constexpr std::size_t kCells = 257;  // not a multiple of any chunk size
  study::SweepConfig sequential;
  sequential.threads = 1;
  sequential.base_seed = 42;
  const auto expected = study::SweepRunner(sequential).run<CellOut>(kCells, sweep_body);
  ASSERT_EQ(expected.size(), kCells);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{5}}) {
      study::SweepConfig config;
      config.threads = threads;
      config.chunk = chunk;
      config.base_seed = 42;
      const auto got = study::SweepRunner(config).run<CellOut>(kCells, sweep_body);
      EXPECT_TRUE(got == expected) << "threads=" << threads << " chunk=" << chunk;
    }
  }
}

TEST(SweepRunner, CellRngDependsOnIndexNotSchedule) {
  // Cell i's stream must equal Rng(base_seed).fork(i) regardless of
  // which cells ran before it or on which worker.
  study::SweepConfig config;
  config.threads = 8;
  config.base_seed = 7;
  const auto streams = study::SweepRunner(config).run<std::uint64_t>(
      64, [](std::size_t, sim::Rng rng) { return rng.uniform_int(0, 1 << 30); });
  for (std::size_t i = 0; i < streams.size(); ++i) {
    sim::Rng reference = sim::Rng(7).fork(i);
    EXPECT_EQ(streams[i], static_cast<std::uint64_t>(reference.uniform_int(0, 1 << 30)))
        << "cell " << i;
  }
}

TEST(SweepRunner, DifferentSeedsDiverge) {
  study::SweepConfig a, b;
  a.threads = b.threads = 1;
  a.base_seed = 1;
  b.base_seed = 2;
  auto body = [](std::size_t, sim::Rng rng) { return rng.uniform(0.0, 1.0); };
  EXPECT_NE(study::SweepRunner(a).run<double>(8, body),
            study::SweepRunner(b).run<double>(8, body));
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(SweepRunner, CsvBytesIdenticalAcrossThreadCounts) {
  // End-to-end shape of every converted bench: sweep -> CSV. The files
  // written from a 1-thread and an 8-thread run must match byte for byte.
  auto emit = [](std::size_t threads, const std::string& path) {
    study::SweepConfig config;
    config.threads = threads;
    config.base_seed = 0xC0FFEE;
    const auto cells = study::SweepRunner(config).run<CellOut>(33, sweep_body);
    util::CsvWriter csv(path, {"cell", "a", "b"});
    for (std::size_t i = 0; i < cells.size(); ++i) {
      csv.row({static_cast<double>(i), static_cast<double>(cells[i].a), cells[i].b});
    }
  };
  const std::string seq = "parallel_test_seq.csv";
  const std::string par = "parallel_test_par.csv";
  emit(1, seq);
  emit(8, par);
  const std::string seq_bytes = slurp(seq);
  ASSERT_FALSE(seq_bytes.empty());
  EXPECT_EQ(seq_bytes, slurp(par));
  std::remove(seq.c_str());
  std::remove(par.c_str());
}

TEST(SweepRunner, ThreadsResolveFromEnvironment) {
  // Explicit request wins over everything.
  EXPECT_EQ(study::resolve_sweep_threads(3), 3u);
  // DISTSCROLL_THREADS must be a whole decimal in 1..256. Anything else
  // falls back to the hardware count: "4x" used to read as 4, and
  // 99999 asked sim::ThreadPool for 99998 workers past the tools' cap.
  const std::size_t hardware = std::max(1u, std::thread::hardware_concurrency());
  const struct {
    const char* value;
    std::size_t threads;
  } cases[] = {{"4", 4},         {"256", 256},      {"0", hardware},
               {"4x", hardware}, {"abc", hardware}, {"257", hardware},
               {"99999999999999999999", hardware}};
  for (const auto& c : cases) {
    ASSERT_EQ(setenv("DISTSCROLL_THREADS", c.value, 1), 0);
    EXPECT_EQ(study::resolve_sweep_threads(0), c.threads) << "DISTSCROLL_THREADS=" << c.value;
    EXPECT_EQ(study::resolve_sweep_threads(2), 2u) << "DISTSCROLL_THREADS=" << c.value;
  }
  ASSERT_EQ(unsetenv("DISTSCROLL_THREADS"), 0);
  EXPECT_EQ(study::resolve_sweep_threads(0), hardware);
}

// ---------------------------------------------------------------------------
// timed_sweep: the one bench harness path

TEST(TimedSweep, TwoPassesEqualRunAndWriteTheDocumentedReport) {
  // From a scratch working directory, since the harness writes
  // BENCH_<name>.json into the current one.
  const std::filesystem::path previous = std::filesystem::current_path();
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "timed_sweep_contract";
  std::filesystem::create_directories(dir);
  std::filesystem::current_path(dir);

  constexpr std::size_t kCells = 19;
  std::atomic<std::size_t> body_runs{0};
  const auto results = study::timed_sweep<CellOut>(
      "harness_contract", kCells, 42, [&](std::size_t index, sim::Rng rng) {
        body_runs.fetch_add(1);
        return sweep_body(index, std::move(rng));
      });
  const std::string json = slurp("BENCH_harness_contract.json");
  std::filesystem::current_path(previous);

  study::SweepConfig sequential;
  sequential.threads = 1;
  sequential.base_seed = 42;
  EXPECT_TRUE(results == study::SweepRunner(sequential).run<CellOut>(kCells, sweep_body));
  EXPECT_EQ(body_runs.load(), 2 * kCells) << "one sequential and one parallel pass";

  // Top-level keys sit at two-space indent; the metrics object's at four.
  std::vector<std::string> keys;
  std::istringstream lines(json);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("  \"", 0) == 0) keys.push_back(line.substr(3, line.find('"', 3) - 3));
  }
  const std::vector<std::string> expected_keys = {
      "name", "cells", "threads", "hardware_threads", "sequential_wall_s", "parallel_wall_s",
      "speedup", "bit_identical", "tracing_compiled", "peak_rss_bytes", "metrics"};
  EXPECT_EQ(keys, expected_keys) << json;
  EXPECT_NE(json.find("    \"cell_wall_count\": 19,"), std::string::npos) << json;
  EXPECT_NE(json.find("  \"bit_identical\": true,"), std::string::npos) << json;
}

// ---------------------------------------------------------------------------
// Tracing must not perturb behaviour (the obs determinism contract)

struct DeviceCellOut {
  std::size_t cursor_index = 0;
  std::size_t cursor_depth = 0;
  std::uint64_t mcu_cycles = 0;
  std::uint64_t redraws = 0;
  std::uint64_t frames_written = 0;
  std::uint64_t controller_changes = 0;

  friend bool operator==(const DeviceCellOut&, const DeviceCellOut&) = default;
};

// A full device session per cell; `traced` only toggles whether a tracer
// observes it. The outputs must be unaffected.
DeviceCellOut device_session_cell(std::size_t index, sim::Rng rng, bool traced) {
  auto menu_root = menu::make_phone_menu();
  sim::EventQueue queue;
  core::DistScrollDevice::Config config;
  core::DistScrollDevice device(config, *menu_root, queue, std::move(rng));
  obs::Tracer tracer(1 << 14, obs::kCatAll);
  if (traced) device.attach_tracer(&tracer);
  const double base = 10.0 + static_cast<double>(index % 7) * 2.0;
  device.set_distance_provider([base](util::Seconds now) {
    return util::Centimeters{base + 6.0 * std::sin(now.value * 2.3)};
  });
  device.power_on();
  queue.schedule_at(util::Seconds{0.5}, [&] { device.select_button().press(); });
  queue.schedule_at(util::Seconds{0.58}, [&] { device.select_button().release(); });
  queue.run_until(util::Seconds{1.0});
  DeviceCellOut out;
  out.cursor_index = device.cursor().index();
  out.cursor_depth = device.cursor().depth();
  out.mcu_cycles = device.board().mcu().cycles();
  out.redraws = device.redraws();
  out.frames_written = device.top_display().frames_written();
  out.controller_changes = device.controller().selection_changes();
  return out;
}

TEST(TracingProperty, SweepResultsIdenticalTracedOrNot) {
  constexpr std::size_t kCells = 12;
  constexpr std::uint64_t kSeed = 0xD15C0;
  std::vector<DeviceCellOut> runs[4];
  std::size_t slot = 0;
  for (const bool traced : {false, true}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      study::SweepConfig config;
      config.threads = threads;
      config.base_seed = kSeed;
      runs[slot++] = study::SweepRunner(config).run<DeviceCellOut>(
          kCells, [traced](std::size_t index, sim::Rng rng) {
            return device_session_cell(index, std::move(rng), traced);
          });
    }
  }
  ASSERT_EQ(runs[0].size(), kCells);
  EXPECT_GT(runs[0][0].mcu_cycles, 0u);  // the sessions actually ran
  EXPECT_TRUE(runs[1] == runs[0]) << "untraced diverged across thread counts";
  EXPECT_TRUE(runs[2] == runs[0]) << "tracing perturbed device behaviour";
  EXPECT_TRUE(runs[3] == runs[0]) << "tracing perturbed 8-thread sweep";
}

TEST(TracingProperty, CsvBytesIdenticalTracedOrNot) {
  // The end-to-end bench shape: sweep -> CSV file. The bytes on disk
  // must not depend on whether a tracer was watching, at any thread
  // count.
  auto emit = [](bool traced, std::size_t threads, const std::string& path) {
    study::SweepConfig config;
    config.threads = threads;
    config.base_seed = 77;
    const auto cells = study::SweepRunner(config).run<DeviceCellOut>(
        8, [traced](std::size_t index, sim::Rng rng) {
          return device_session_cell(index, std::move(rng), traced);
        });
    util::CsvWriter csv(path, {"cell", "cursor", "depth", "cycles", "redraws"});
    for (std::size_t i = 0; i < cells.size(); ++i) {
      csv.row({static_cast<double>(i), static_cast<double>(cells[i].cursor_index),
               static_cast<double>(cells[i].cursor_depth),
               static_cast<double>(cells[i].mcu_cycles),
               static_cast<double>(cells[i].redraws)});
    }
  };
  const std::string untraced = "tracing_property_off.csv";
  const std::string traced1 = "tracing_property_on_1t.csv";
  const std::string traced8 = "tracing_property_on_8t.csv";
  emit(false, 1, untraced);
  emit(true, 1, traced1);
  emit(true, 8, traced8);
  const std::string reference = slurp(untraced);
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(reference, slurp(traced1));
  EXPECT_EQ(reference, slurp(traced8));
  std::remove(untraced.c_str());
  std::remove(traced1.c_str());
  std::remove(traced8.c_str());
}

// ---------------------------------------------------------------------------
// DevicePool: a recycled session must be bit-identical to a fresh device

// One device-study cell: a participant runs discovery plus two short
// blocks on the real device. `use_pool` selects recycled vs freshly
// constructed device; the outputs may not depend on the choice.
study::DeviceParticipantResult participant_cell(std::size_t index, sim::Rng rng,
                                                bool use_pool) {
  const auto menu_root = menu::make_phone_menu();
  study::DeviceStudyConfig config;
  config.blocks = 2;
  config.trials_per_block = 2;
  human::UserProfile profile = human::UserProfile{}.with_expertise(
      0.2 + 0.15 * static_cast<double>(index % 5));
  return study::run_device_participant(*menu_root, profile, config, std::move(rng), use_pool);
}

bool same_result(const study::DeviceParticipantResult& a,
                 const study::DeviceParticipantResult& b) {
  return a.name == b.name && a.discovery_time_s == b.discovery_time_s && a.blocks == b.blocks;
}

TEST(DevicePoolProperty, WarmResetBitIdenticalToFreshConstruction) {
  study::DevicePool::local().discard();  // force the next acquire to construct
  const sim::Rng base(0xB00F);

  const auto fresh = participant_cell(3, sim::Rng(base).fork(3), false);
  ASSERT_FALSE(fresh.blocks.empty());

  // Cold pool: first pooled run constructs the session.
  const auto cold = participant_cell(3, sim::Rng(base).fork(3), true);
  EXPECT_TRUE(same_result(cold, fresh)) << "cold pooled session diverged from fresh";
  ASSERT_TRUE(study::DevicePool::local().warm());

  // Warm pool: this run exercises the in-place reset path.
  const auto warm = participant_cell(3, sim::Rng(base).fork(3), true);
  EXPECT_TRUE(same_result(warm, fresh)) << "warm pooled session diverged from fresh";

  // A different cell on the same warm session matches its own fresh
  // reference: reset() leaks no state from the previous participant.
  const auto warm_other = participant_cell(7, sim::Rng(base).fork(7), true);
  const auto fresh_other = participant_cell(7, sim::Rng(base).fork(7), false);
  EXPECT_TRUE(same_result(warm_other, fresh_other))
      << "state leaked across pooled sessions";
}

TEST(DevicePoolProperty, SweepBitIdenticalPooledOrFreshAtAnyThreadCount) {
  // The full determinism contract: cell result = f(index, fork(index)),
  // regardless of pooling and of which worker (with whatever session
  // history) runs the cell. 8 threads × pooled is the stressful cell:
  // thread_local sessions get recycled across an unpredictable subset
  // of cells.
  constexpr std::size_t kCells = 6;
  constexpr std::uint64_t kSeed = 0xB001;
  std::vector<study::DeviceParticipantResult> reference;
  for (const bool pooled : {false, true}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      study::SweepConfig config;
      config.threads = threads;
      config.base_seed = kSeed;
      auto got = study::SweepRunner(config).run<study::DeviceParticipantResult>(
          kCells, [pooled](std::size_t index, sim::Rng rng) {
            return participant_cell(index, std::move(rng), pooled);
          });
      ASSERT_EQ(got.size(), kCells);
      if (reference.empty()) {
        reference = std::move(got);
        continue;
      }
      for (std::size_t i = 0; i < kCells; ++i) {
        EXPECT_TRUE(same_result(got[i], reference[i]))
            << "cell " << i << " pooled=" << pooled << " threads=" << threads;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// EventQueue: heap calendar dispatch order

TEST(EventQueueHeap, SameTimeDispatchesInInsertionOrder) {
  sim::EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    queue.schedule_at(util::Seconds{1.0}, [&order, i] { order.push_back(i); });
  }
  queue.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueueHeap, RandomTimesMatchStableSortReference) {
  sim::Rng rng(123);
  sim::EventQueue queue;
  struct Ref {
    double time;
    int id;
  };
  std::vector<Ref> reference;
  std::vector<int> dispatched;
  for (int i = 0; i < 500; ++i) {
    // Coarse buckets force many exact ties.
    const double t = static_cast<double>(rng.uniform_int(0, 20)) * 0.1;
    reference.push_back({t, i});
    queue.schedule_at(util::Seconds{t}, [&dispatched, i] { dispatched.push_back(i); });
  }
  queue.run_all();
  std::stable_sort(reference.begin(), reference.end(),
                   [](const Ref& a, const Ref& b) { return a.time < b.time; });
  ASSERT_EQ(dispatched.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(dispatched[i], reference[i].id) << "position " << i;
  }
}

TEST(EventQueueHeap, InterleavedScheduleFromCallbacks) {
  // Events scheduled during dispatch land in the right order too.
  sim::EventQueue queue;
  std::vector<std::string> log;
  queue.schedule_at(util::Seconds{1.0}, [&] {
    log.push_back("a");
    queue.schedule_after(util::Seconds{1.0}, [&] { log.push_back("c"); });
  });
  queue.schedule_at(util::Seconds{1.5}, [&] { log.push_back("b"); });
  queue.run_all();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], "a");
  EXPECT_EQ(log[1], "b");
  EXPECT_EQ(log[2], "c");
}

// ---------------------------------------------------------------------------
// EventQueue: lazy cancellation semantics

TEST(EventQueueCancel, CancelledEventNeverFires) {
  sim::EventQueue queue;
  bool fired = false;
  const auto handle = queue.schedule_at(util::Seconds{1.0}, [&] { fired = true; });
  EXPECT_TRUE(queue.cancel(handle));
  queue.run_all();
  EXPECT_FALSE(fired);
}

TEST(EventQueueCancel, DoubleCancelReturnsFalse) {
  sim::EventQueue queue;
  const auto handle = queue.schedule_at(util::Seconds{1.0}, [] {});
  EXPECT_TRUE(queue.cancel(handle));
  EXPECT_FALSE(queue.cancel(handle));
}

TEST(EventQueueCancel, StaleHandleAfterSlotReuseReturnsFalse) {
  sim::EventQueue queue;
  const auto first = queue.schedule_at(util::Seconds{1.0}, [] {});
  ASSERT_TRUE(queue.cancel(first));
  // The freed slot is reused; the generation tag must reject `first`.
  bool second_fired = false;
  const auto second = queue.schedule_at(util::Seconds{2.0}, [&] { second_fired = true; });
  EXPECT_NE(first, second);
  EXPECT_FALSE(queue.cancel(first));
  queue.run_all();
  EXPECT_TRUE(second_fired);
}

TEST(EventQueueCancel, PendingExcludesCancelled) {
  sim::EventQueue queue;
  const auto a = queue.schedule_at(util::Seconds{1.0}, [] {});
  queue.schedule_at(util::Seconds{2.0}, [] {});
  EXPECT_EQ(queue.pending(), 2u);
  EXPECT_TRUE(queue.cancel(a));
  EXPECT_EQ(queue.pending(), 1u);
  EXPECT_FALSE(queue.empty());
  queue.run_all();
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.pending(), 0u);
}

TEST(EventQueueCancel, FiredHandleCannotBeCancelled) {
  sim::EventQueue queue;
  const auto handle = queue.schedule_at(util::Seconds{1.0}, [] {});
  queue.run_all();
  EXPECT_FALSE(queue.cancel(handle));
}

TEST(EventQueueCancel, InvalidHandleIsRejected) {
  sim::EventQueue queue;
  EXPECT_FALSE(queue.cancel(sim::EventQueue::kInvalidHandle));
}

TEST(EventQueueCancel, CancelStormStaysConsistent) {
  sim::EventQueue queue;
  sim::Rng rng(99);
  std::vector<sim::EventQueue::Handle> handles;
  int fired = 0;
  for (int i = 0; i < 1000; ++i) {
    handles.push_back(
        queue.schedule_at(util::Seconds{rng.uniform(0.0, 10.0)}, [&fired] { ++fired; }));
  }
  int cancelled = 0;
  for (std::size_t i = 0; i < handles.size(); i += 2) {
    if (queue.cancel(handles[i])) ++cancelled;
  }
  EXPECT_EQ(cancelled, 500);
  EXPECT_EQ(queue.pending(), 500u);
  queue.run_all();
  EXPECT_EQ(fired, 500);
  EXPECT_TRUE(queue.empty());
}

// ---------------------------------------------------------------------------
// EventQueue: run_all safety cap surfaced

TEST(EventQueueRunAll, TruncatedFlagSetWhenCapHit) {
  sim::EventQueue queue;
  // Self-perpetuating event: would run forever without the cap.
  std::function<void()> reschedule = [&] {
    queue.schedule_after(util::Seconds{0.001}, reschedule);
  };
  queue.schedule_after(util::Seconds{0.001}, reschedule);
  const std::size_t steps = queue.run_all(/*max_events=*/1000);
  EXPECT_EQ(steps, 1000u);
  EXPECT_TRUE(queue.truncated());
  EXPECT_FALSE(queue.empty());
}

TEST(EventQueueRunAll, TruncatedFlagClearOnNormalDrain) {
  sim::EventQueue queue;
  queue.schedule_at(util::Seconds{1.0}, [] {});
  queue.schedule_at(util::Seconds{2.0}, [] {});
  EXPECT_EQ(queue.run_all(), 2u);
  EXPECT_FALSE(queue.truncated());
}

}  // namespace
}  // namespace distscroll
