// Microbenchmarks (google-benchmark): the hot paths of the simulator
// plus the paper's "no heavy input processing" claim quantified in PIC
// instruction cycles.
//
// "In our approach, the input parameter can be directly derived from the
//  sensor without the need of heavy input processing." (Section 2)
//
// We compare the DistScroll per-sample firmware cost (ADC + island
// lookup) against what a gesture-recognition baseline would burn on the
// same MCU (windowed feature extraction over accelerometer data, as
// GestureWrist/FreeDigiter-class recognisers need).
#include <benchmark/benchmark.h>

#include <array>
#include <cmath>
#include <filesystem>
#include <span>
#include <vector>

#include "core/distscroll_device.h"
#include "core/island_mapper.h"
#include "core/scroll_controller.h"
#include "display/bt96040.h"
#include "display/display_driver.h"
#include "hw/adc.h"
#include "lint/index.h"
#include "lint/rules.h"
#include "menu/menu_builder.h"
#include "menu/phone_menu.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "sensors/gp2d120.h"
#include "hw/scheduler.h"
#include "sim/event_queue.h"
#include "study/device_pool.h"
#include "study/sweep_runner.h"
#include "util/alloc_guard.h"
#include "util/crc.h"
#include "wireless/arq.h"
#include "wireless/packet.h"

using namespace distscroll;

namespace {

/// The binary-search reference lookup (the pre-LUT hot path, kept as
/// the oracle). Compare against BM_IslandLookupLut below.
void BM_IslandLookupSearch(benchmark::State& state) {
  core::SensorCurve curve;
  core::IslandMapper mapper(curve, static_cast<std::size_t>(state.range(0)), {});
  std::uint16_t counts = 100;
  for (auto _ : state) {
    counts = static_cast<std::uint16_t>((counts * 37 + 11) % 1024);
    benchmark::DoNotOptimize(mapper.lookup(util::AdcCounts{counts}));
  }
  state.counters["pic_cycles_per_lookup"] =
      static_cast<double>(mapper.search_cost_cycles());
}
BENCHMARK(BM_IslandLookupSearch)->Arg(5)->Arg(10)->Arg(26)->Arg(64);

/// The O(1) counts->island LUT the firmware hot path now probes. Same
/// count stream as the search variant; the time per lookup should be
/// flat in the entry count, and the PIC cycle counter drops from
/// ~9+7*log2(N) to a constant table fetch.
void BM_IslandLookupLut(benchmark::State& state) {
  core::SensorCurve curve;
  core::IslandMapper mapper(curve, static_cast<std::size_t>(state.range(0)), {});
  std::uint16_t counts = 100;
  for (auto _ : state) {
    counts = static_cast<std::uint16_t>((counts * 37 + 11) % 1024);
    benchmark::DoNotOptimize(mapper.lookup_lut(util::AdcCounts{counts}));
  }
  state.counters["pic_cycles_per_lookup"] =
      static_cast<double>(mapper.lookup_cost_cycles());
}
BENCHMARK(BM_IslandLookupLut)->Arg(5)->Arg(10)->Arg(26)->Arg(64);

/// Session kernel: constructing a full device per sweep cell (Arg 0)
/// versus recycling one DeviceSession in place (Arg 1) — the pooling
/// win BENCH jsons track as stage_trial_setup.
void BM_DeviceConstructVsReset(benchmark::State& state) {
  const bool pooled = state.range(0) != 0;
  const auto menu_root = menu::make_phone_menu();
  core::DistScrollDevice::Config config;
  std::uint64_t seed = 0;
  if (pooled) {
    study::DeviceSession session;
    for (auto _ : state) {
      auto& device = session.acquire(config, *menu_root, sim::Rng(++seed));
      benchmark::DoNotOptimize(device.cursor().index());
    }
  } else {
    for (auto _ : state) {
      sim::EventQueue queue;
      core::DistScrollDevice device(config, *menu_root, queue, sim::Rng(++seed));
      benchmark::DoNotOptimize(device.cursor().index());
    }
  }
}
BENCHMARK(BM_DeviceConstructVsReset)->Arg(0)->Arg(1);

/// The delegate-based sampling chain: ADC conversion through a
/// FunctionRef analog source into the GP2D120 model — the per-tick cost
/// the firmware pays, with no std::function indirection left in it.
void BM_AdcSampleChain(benchmark::State& state) {
  hw::Adc10 adc({}, sim::Rng(7));
  sensors::Gp2d120Model sensor({}, sim::Rng(8));
  auto source = [&](util::Seconds now) {
    return sensor.output(util::Centimeters{15.0 + 5.0 * std::sin(now.value)}, now);
  };
  const auto channel = adc.attach(source);
  double t = 0.0;
  for (auto _ : state) {
    t += 0.001;
    benchmark::DoNotOptimize(adc.sample(channel, util::Seconds{t}));
  }
}
BENCHMARK(BM_AdcSampleChain);

void BM_ScrollControllerSample(benchmark::State& state) {
  core::SensorCurve curve;
  core::IslandMapper mapper(curve, 10, {});
  core::ScrollController::Config config;
  config.smoothing = static_cast<core::Smoothing>(state.range(0));
  core::ScrollController controller(mapper, config);
  std::uint16_t counts = 100;
  std::uint64_t pic_cycles = 0;
  for (auto _ : state) {
    counts = static_cast<std::uint16_t>((counts * 37 + 11) % 1024);
    const auto update = controller.on_sample(util::AdcCounts{counts});
    pic_cycles = update.cycles;
    benchmark::DoNotOptimize(update);
  }
  state.counters["pic_cycles_per_sample"] = static_cast<double>(pic_cycles);
}
BENCHMARK(BM_ScrollControllerSample)->Arg(0)->Arg(1)->Arg(2);  // raw/median/ema

/// The gesture-recognition strawman: a 32-sample window of 2-axis
/// accelerometer data, mean/energy/zero-crossing features plus an
/// 8-template nearest-neighbour match — the cheap end of what the
/// cited gesture interfaces do, counted in emulated PIC cycles.
void BM_GestureRecognitionBaseline(benchmark::State& state) {
  std::array<std::int16_t, 64> window{};
  std::uint16_t x = 7;
  std::uint64_t pic_cycles = 0;
  for (auto _ : state) {
    for (auto& s : window) {
      x = static_cast<std::uint16_t>(x * 31 + 7);
      s = static_cast<std::int16_t>(x & 0x3FF);
    }
    std::int32_t mean = 0, energy = 0;
    int crossings = 0;
    for (std::size_t i = 0; i < window.size(); ++i) {
      mean += window[i];
      energy += window[i] * window[i] >> 8;
      if (i > 0 && ((window[i] > 512) != (window[i - 1] > 512))) ++crossings;
    }
    std::int32_t best = INT32_MAX;
    for (int t = 0; t < 8; ++t) {
      const std::int32_t d = std::abs(mean / 64 - t * 128) + std::abs(energy / 64 - t * 90) +
                             std::abs(crossings - t * 3);
      best = std::min(best, d);
    }
    benchmark::DoNotOptimize(best);
    // PIC cost model: per window sample ~12 cycles of feature math
    // (8-bit core, 16-bit data), plus 8 template comparisons ~40 cycles.
    pic_cycles = window.size() * 12 + 8 * 40;
  }
  state.counters["pic_cycles_per_sample"] = static_cast<double>(pic_cycles);
}
BENCHMARK(BM_GestureRecognitionBaseline);

void BM_Gp2d120Sample(benchmark::State& state) {
  sensors::Gp2d120Model sensor({}, sim::Rng(1));
  double t = 0.0;
  for (auto _ : state) {
    t += 0.01;
    benchmark::DoNotOptimize(sensor.output(util::Centimeters{15.0}, util::Seconds{t}));
  }
}
BENCHMARK(BM_Gp2d120Sample);

void BM_EventQueueSchedule(benchmark::State& state) {
  sim::EventQueue queue;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      queue.schedule_after(util::Seconds{static_cast<double>(i % 7) * 1e-3}, [] {});
    }
    while (queue.step()) {
    }
  }
}
BENCHMARK(BM_EventQueueSchedule);

/// Heap-calendar hot paths in isolation: push N events (pre-warmed slot
/// table, no allocation in steady state), then drain them.
void BM_EventQueue_Schedule(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::EventQueue queue;
  for (auto _ : state) {
    for (int i = 0; i < n; ++i) {
      queue.schedule_after(util::Seconds{static_cast<double>((i * 37) % 101) * 1e-4}, [] {});
    }
    state.PauseTiming();
    queue.run_all();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueue_Schedule)->Arg(64)->Arg(1024)->Arg(16384);

void BM_EventQueue_Dispatch(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::EventQueue queue;
  for (auto _ : state) {
    state.PauseTiming();
    for (int i = 0; i < n; ++i) {
      queue.schedule_after(util::Seconds{static_cast<double>((i * 37) % 101) * 1e-4}, [] {});
    }
    state.ResumeTiming();
    queue.run_all();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueue_Dispatch)->Arg(64)->Arg(1024)->Arg(16384);

/// The O(1) lazy cancel (was an O(n) std::map walk per cancel): cancel
/// half the calendar, handle-by-handle, then drain the survivors.
void BM_EventQueue_Cancel(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::EventQueue queue;
  std::vector<sim::EventQueue::Handle> handles(static_cast<std::size_t>(n));
  for (auto _ : state) {
    state.PauseTiming();
    for (int i = 0; i < n; ++i) {
      handles[static_cast<std::size_t>(i)] = queue.schedule_after(
          util::Seconds{static_cast<double>((i * 37) % 101) * 1e-4}, [] {});
    }
    state.ResumeTiming();
    for (int i = 0; i < n; i += 2) queue.cancel(handles[static_cast<std::size_t>(i)]);
    state.PauseTiming();
    queue.run_all();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * (n / 2));
}
BENCHMARK(BM_EventQueue_Cancel)->Arg(64)->Arg(1024)->Arg(16384);

/// The parallel sweep engine end to end: index-keyed RNG forking, slot
/// writeback, one simulated-work cell body. Arg = thread count (on a
/// single-core host every count measures mostly the pool's overhead).
void BM_SweepRunner(benchmark::State& state) {
  study::SweepConfig config;
  config.threads = static_cast<std::size_t>(state.range(0));
  config.base_seed = 0xBE9C;
  study::SweepRunner runner(config);
  constexpr std::size_t kCells = 256;
  for (auto _ : state) {
    const auto cells = runner.run<double>(kCells, [](std::size_t, sim::Rng rng) {
      double acc = 0.0;
      for (int i = 0; i < 200; ++i) acc += rng.gaussian(0.0, 1.0);
      return acc;
    });
    benchmark::DoNotOptimize(cells.data());
  }
  state.SetItemsProcessed(state.iterations() * kCells);
}
BENCHMARK(BM_SweepRunner)->Arg(1)->Arg(2)->Arg(8);

/// The tracer hot path: one record into the pre-allocated ring — what
/// every instrumented firmware tick pays per event. Arg 1 = category
/// mask hit (event retained), Arg 0 = mask miss (stream filtered off,
/// the cost of a runtime-disabled category).
void BM_TracerRecord(benchmark::State& state) {
  obs::Tracer tracer(1 << 14, state.range(0) ? obs::kCatAll : obs::kCatSensor);
  std::uint32_t i = 0;
  for (auto _ : state) {
    tracer.record_at(static_cast<double>(i), obs::EventKind::AdcRead, 2, i);
    ++i;
  }
  benchmark::DoNotOptimize(tracer.size());
  state.counters["ring_dropped"] = static_cast<double>(tracer.dropped());
}
BENCHMARK(BM_TracerRecord)->Arg(1)->Arg(0);

/// MetricsRegistry hot path: recording through a cached instrument
/// reference (the usage contract — no name lookup per sample).
void BM_HistogramRecord(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Histogram& hist = registry.histogram("lat");
  double v = 0.25e-3;
  for (auto _ : state) {
    v = v * 1.7 + 1e-5;
    if (v > 20.0) v = 0.25e-3;
    hist.record(v);
  }
  benchmark::DoNotOptimize(hist.count());
}
BENCHMARK(BM_HistogramRecord);

void BM_DisplayFullRedraw(benchmark::State& state) {
  hw::I2cBus bus;
  display::Bt96040 panel;
  bus.attach(0x3C, &panel);
  display::DisplayDriver driver(bus, 0x3C);
  int flip = 0;
  for (auto _ : state) {
    ++flip;
    driver.show({flip % 2 ? "AAAAAAAA" : "BBBBBBBB", "line2", "line3", "line4", "line5"},
                flip % 5);
  }
}
BENCHMARK(BM_DisplayFullRedraw);

void BM_FrameEncodeDecode(benchmark::State& state) {
  wireless::Frame frame;
  frame.type = wireless::FrameType::State;
  frame.payload = wireless::StateReport{512, 1, 3, 9, 0}.pack();
  wireless::FrameDecoder decoder;
  for (auto _ : state) {
    const auto wire = wireless::encode(frame);
    std::optional<wireless::Frame> decoded;
    for (std::uint8_t byte : wire) decoded = decoder.feed(byte);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_FrameEncodeDecode);

void BM_Crc8(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)), 0xA5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::crc8(data));
  }
}
BENCHMARK(BM_Crc8)->Arg(11)->Arg(64);

/// DSTL containers and fleet checkpoints are sealed with one crc32 over
/// the whole file (~0.9 MB for a 2000-device host ingest run).
void BM_Crc32(benchmark::State& state) {
  std::vector<std::uint8_t> data(std::size_t{1} << 20);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i * 131u);
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::crc32(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_Crc32);

/// Host ingest's per-frame validation of one delimited State frame
/// (sync, length, type, CRC-8, zero-copy payload view).
void BM_ParseWireFrame(benchmark::State& state) {
  std::array<std::uint8_t, wireless::StateReport::kPackedSize> payload;
  wireless::StateReport{512, 1, 3, 9, 0}.pack_into(payload);
  std::array<std::uint8_t, wireless::kMaxEncodedFrame> wire{};
  const std::size_t len = wireless::encode_into(wireless::FrameType::State, 7, payload, wire);
  for (auto _ : state) {
    benchmark::DoNotOptimize(wireless::parse_wire_frame({wire.data(), len}));
  }
}
BENCHMARK(BM_ParseWireFrame);

/// One reliable-delivery round trip on the device side: send (encode
/// into the retransmit queue), transmit through the wire sink (arming
/// the retransmit timer), then the ack (cancel the timer, slide the
/// window) — what every report costs a host ingest link.
void BM_ArqSendAck(benchmark::State& state) {
  sim::EventQueue queue;
  wireless::ArqSender sender(wireless::ArqConfig{}, queue);
  std::size_t wire_bytes = 0;
  sender.set_wire_sink([&wire_bytes](std::span<const std::uint8_t> wire) {
    wire_bytes += wire.size();
    return true;
  });
  std::array<std::uint8_t, wireless::StateReport::kPackedSize> payload;
  wireless::StateReport{512, 1, 3, 9, 0}.pack_into(payload);
  std::uint8_t seq = 0;
  for (auto _ : state) {
    sender.send(wireless::FrameType::State, payload);
    sender.on_ack(seq++);
    // Dispatcher pass at the same instant: pops the cancelled timer's
    // heap entry, as the link's run_until does once time reaches it.
    queue.run_until(queue.now());
  }
  benchmark::DoNotOptimize(wire_bytes);
  if (sender.acks_received() != static_cast<std::uint64_t>(state.iterations())) {
    state.SkipWithError("a send/ack round trip was lost");
  }
}
BENCHMARK(BM_ArqSendAck);

/// Cost of the AllocGuard interposer on the allocator itself: a
/// new/delete pair with the counting operator new linked in (linking
/// bench against ds_util pulls the interposer object in). No guard
/// scope is active — this is the tax every allocation in a
/// guard-linked binary pays, scope or not: two thread_local counter
/// bumps. Arg 0 = 16 B (SBO-ish), Arg 1 = 4 KiB (page-ish).
void BM_AllocGuardOverhead(benchmark::State& state) {
  const std::size_t size = state.range(0) ? 4096 : 16;
  for (auto _ : state) {
    auto* p = new char[size];
    benchmark::DoNotOptimize(p);
    delete[] p;
  }
  state.counters["interposer_linked"] = util::alloc_interposer_linked() ? 1.0 : 0.0;
}
BENCHMARK(BM_AllocGuardOverhead)->Arg(0)->Arg(1);

/// The full ds_lint run over the real repo tree, in-process: index
/// (walk + strip + lex + include closure + function defs), the seven
/// file-local rules, and the three whole-program passes. This is the
/// number the lint_tree build gate pays on every build — the budget is
/// "fast enough to never think about" (tens of ms), and this bench is
/// the regression tripwire for it.
void BM_DsLintFullTree(benchmark::State& state) {
  const std::filesystem::path root = DS_REPO_ROOT;
  std::size_t files = 0;
  std::size_t raw_findings = 0;
  for (auto _ : state) {
    std::string error;
    const lint::FileIndex index = lint::build_index(root, {}, &error);
    if (!error.empty()) state.SkipWithError(error.c_str());
    lint::Emit raw;
    for (const lint::Rule& rule : lint::registry()) {
      if (rule.scan_file != nullptr) {
        for (const lint::SourceFile& src : index.files) {
          if (rule.applies(src.path)) rule.scan_file(src, raw);
        }
      }
      if (rule.scan_tree != nullptr) rule.scan_tree(index, raw);
    }
    files = index.files.size();
    raw_findings = raw.size();
    benchmark::DoNotOptimize(raw);
  }
  state.counters["files"] = static_cast<double>(files);
  state.counters["raw_findings"] = static_cast<double>(raw_findings);
}
BENCHMARK(BM_DsLintFullTree)->Unit(benchmark::kMillisecond);

/// The whole DistScroll firmware task set on the cooperative scheduler:
/// how much of the PIC's 1 ms tick budget does the prototype use?
void BM_FirmwareTaskSetUtilization(benchmark::State& state) {
  double utilization = 0.0;
  for (auto _ : state) {
    sim::EventQueue queue;
    hw::Mcu mcu({}, queue);
    hw::Scheduler scheduler({}, mcu);
    scheduler.add_task("buttons", 1, 12, [] {});           // 1 kHz scan
    scheduler.add_task("ranger+map", 20, 440 + 82, [] {}); // 50 Hz sense+lookup
    scheduler.add_task("display", 20, 900, [] {});         // redraw path
    scheduler.add_task("telemetry", 40, 120 + 990, [] {}); // frame + uart pump
    scheduler.start();
    queue.run_until(util::Seconds{1.0});
    utilization = scheduler.utilization();
    benchmark::DoNotOptimize(scheduler.overruns());
  }
  state.counters["tick_budget_used"] = utilization;
}
BENCHMARK(BM_FirmwareTaskSetUtilization);

}  // namespace

BENCHMARK_MAIN();
