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
#include <numbers>
#include <span>
#include <vector>

#include "baselines/distance_scroll.h"
#include "baselines/radial_scroll.h"
#include "baselines/tilt_scroll.h"
#include "core/distscroll_device.h"
#include "core/island_mapper.h"
#include "core/scroll_controller.h"
#include "display/bt96040.h"
#include "display/display_driver.h"
#include "host/columnar.h"
#include "host/device_registry.h"
#include "host/host_pipeline.h"
#include "host/ingest_queue.h"
#include "host/sim_link.h"
#include "human/hand_model.h"
#include "human/motion_planner.h"
#include "human/population.h"
#include "hw/adc.h"
#include "lint/index.h"
#include "lint/rules.h"
#include "menu/menu_builder.h"
#include "menu/phone_menu.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "sensors/gp2d120.h"
#include "sim/event_queue.h"
#include "study/fleet_study.h"
#include "study/sweep_runner.h"
#include "study/task.h"
#include "util/alloc_guard.h"
#include "util/crc.h"
#include "util/quantile_sketch.h"
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

/// Trial setup: one full device (board, buses, displays, buttons,
/// calendar) built per participant, as study::run_device_participant
/// does under its TrialSetup stage.
void BM_DeviceConstruct(benchmark::State& state) {
  const auto menu_root = menu::make_phone_menu();
  core::DistScrollDevice::Config config;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    sim::EventQueue queue;
    core::DistScrollDevice device(config, *menu_root, queue, sim::Rng(++seed));
    benchmark::DoNotOptimize(device.cursor().index());
  }
}
BENCHMARK(BM_DeviceConstruct);

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

/// The DistScroll technique layer on its own: one 17-tick
/// on_control_block (sensor + ADC pass, then the controller pass) per
/// iteration on a 40-entry menu, the block shape MotionPlanner feeds.
/// The hand sweeps 4–30 cm from a precomputed table and is read only on
/// the ticks where the GP2D120 re-measures.
void BM_DistanceScrollControlBlock(benchmark::State& state) {
  constexpr std::size_t kTicks = 17;
  baselines::DistanceScroll technique({}, sim::Rng(1));
  technique.reset(40, 0);
  std::vector<double> sweep(1024);
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    sweep[i] = 17.0 + 13.0 * std::sin(0.013 * static_cast<double>(i));
  }
  std::array<double, kTicks> now_s{};
  std::array<std::size_t, kTicks> cursors{};
  const double tick = technique.control_period_s();
  std::size_t ticks = 0;
  for (auto _ : state) {
    for (std::size_t k = 0; k < kTicks; ++k) {
      now_s[k] = static_cast<double>(ticks + k) * tick;
    }
    const auto hand = [&](std::size_t k) { return sweep[(ticks + k) % sweep.size()]; };
    technique.on_control_block(now_s, hand, cursors);
    benchmark::DoNotOptimize(cursors.data());
    benchmark::ClobberMemory();
    ticks += kTicks;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ticks));
}
BENCHMARK(BM_DistanceScrollControlBlock);

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

/// One normal from sim::Rng::gaussian — the draw behind every sensor,
/// ADC, tremor and aim noise sample. Time per iteration = ns per normal.
void BM_RngGaussian(benchmark::State& state) {
  sim::Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.gaussian(0.0, 1.0));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngGaussian);

/// Tremor over the planner's 4 ms grid. Arg 0: displacement_cm() on
/// every step (what each dense control step paid); arg 1: advance()
/// only, what a DistScroll step costs when the sensor does not read its
/// hand sample: a step before the next firmware tick, or a tick between
/// two GP2D120 remeasures.
void BM_TremorDisplacement(benchmark::State& state) {
  const bool advance_only = state.range(0) != 0;
  human::Tremor tremor({}, sim::Rng(1));
  double t = 0.0;
  for (auto _ : state) {
    t += 0.004;
    if (advance_only) {
      tremor.advance(t);
    } else {
      benchmark::DoNotOptimize(tremor.displacement_cm(t));
    }
  }
}
BENCHMARK(BM_TremorDisplacement)->Arg(0)->Arg(1);

/// One trial through MotionPlanner::acquire (reset, the technique's
/// control path, commit press) on a 20-entry menu, cycling over 64 tasks.
void run_planner_trials(benchmark::State& state, baselines::ScrollTechnique& technique) {
  const human::UserProfile profile = human::UserProfile::average();
  sim::Rng task_rng(2);
  const auto tasks = study::random_tasks(task_rng, 20, 64);
  const sim::Rng trials_rng(3);
  std::uint64_t trial = 0;
  for (auto _ : state) {
    const study::SelectionTask& task = tasks[trial % tasks.size()];
    technique.reset(task.level_size, task.start_index);
    human::MotionPlanner planner(trials_rng.fork(trial++));
    benchmark::DoNotOptimize(planner.acquire(technique, task.target_index, profile));
  }
}

/// DistScroll: absolute control (reaches, settles, firmware-tick feed).
void BM_PlannerAbsoluteTrial(benchmark::State& state) {
  baselines::DistanceScroll technique({}, sim::Rng(1));
  run_planner_trials(state, technique);
}
BENCHMARK(BM_PlannerAbsoluteTrial);

/// TiltScroll: rate control (delayed perception, 20 ms accelerometer tick).
void BM_PlannerRateTrial(benchmark::State& state) {
  baselines::TiltScroll technique({}, sim::Rng(1));
  run_planner_trials(state, technique);
}
BENCHMARK(BM_PlannerRateTrial);

/// RadialScroll: unbounded relative control (circling, touch dropouts).
void BM_PlannerUnboundedTrial(benchmark::State& state) {
  baselines::RadialScroll technique;
  run_planner_trials(state, technique);
}
BENCHMARK(BM_PlannerUnboundedTrial);

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

/// The fleet's fold/merge layer: one chunk as run_fleet folds it — a
/// fresh FleetAggregates (the engine's chunk slot), 256 participants of
/// 4 synthetic trials each folded in order, then merged into a global
/// aggregate that lives across iterations like a run's. The records are
/// built once outside the loop, so no trial kernel runs. `s_per_chunk`
/// is one construct + fold + merge.
void BM_FleetFoldMerge(benchmark::State& state) {
  constexpr std::size_t kParticipants = 256;
  constexpr std::size_t kTrials = 4;
  const human::PopulationSpec spec;
  const sim::Rng root(0xF1EE7);
  std::vector<human::SampledParticipant> participants;
  std::vector<study::TrialRecord> records;
  sim::Rng draws = root.fork(kParticipants);
  for (std::size_t p = 0; p < kParticipants; ++p) {
    participants.push_back(human::sample_participant(spec, root.fork(p)));
    for (std::size_t t = 0; t < kTrials; ++t) {
      study::TrialRecord record;
      record.outcome.success = draws.uniform01() < 0.95;
      record.outcome.time_s = 0.5 + draws.exponential(4.0);
      record.outcome.id_bits = 1.0 + 4.0 * draws.uniform01();
      record.outcome.overshoots = draws.uniform01() < 0.3 ? 1 : 0;
      records.push_back(record);
    }
  }
  study::FleetAggregates global;
  for (auto _ : state) {
    study::FleetAggregates chunk;
    for (std::size_t p = 0; p < kParticipants; ++p) {
      chunk.fold_participant(participants[p]);
      for (std::size_t t = 0; t < kTrials; ++t) chunk.fold_trial(records[p * kTrials + t]);
    }
    global.merge(chunk);
  }
  benchmark::DoNotOptimize(global.trials());
  state.counters["s_per_chunk"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_FleetFoldMerge);

/// The quantile sketch alone: a fresh sketch takes 1024 values (a chunk
/// of 256 participants x 4 trials) and merges into a global sketch that
/// lives across iterations. `s_per_value` is one add, with the
/// construction and the merge spread over the chunk.
void BM_QuantileSketchAddMerge(benchmark::State& state) {
  constexpr std::size_t kValues = 1024;
  std::vector<double> values(kValues);
  sim::Rng rng(0x5CE7C4);
  for (double& v : values) v = 0.5 + rng.exponential(4.0);
  util::QuantileSketch global;
  for (auto _ : state) {
    util::QuantileSketch chunk;
    for (const double v : values) chunk.add(v);
    global.merge(chunk);
  }
  benchmark::DoNotOptimize(global.count());
  state.counters["s_per_value"] =
      benchmark::Counter(static_cast<double>(state.iterations() * kValues),
                         benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_QuantileSketchAddMerge);

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
  std::array<std::uint8_t, wireless::StateReport::kPackedSize> payload{};
  wireless::StateReport{512, 1, 3, 9, 0}.pack_into(payload);
  wireless::FrameDecoder decoder;
  std::uint64_t decoded = 0;
  const auto count = [&decoded](const wireless::FrameView&) { ++decoded; };
  std::array<std::uint8_t, wireless::kMaxEncodedFrame> wire{};
  for (auto _ : state) {
    const std::size_t len = wireless::encode_into(wireless::FrameType::State, 0, payload, wire);
    for (std::size_t i = 0; i < len; ++i) decoder.feed(wire[i], count);
  }
  benchmark::DoNotOptimize(decoded);
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

/// One reliable-delivery round trip on the device side, as a host
/// ingest link makes it for every report: send (encode into the
/// retransmit queue), transmit through the wire sink (arming the
/// retransmit deadline on the device clock), then the ack by seq (drop
/// the frame with its deadline, slide the window).
void BM_ArqSendAck(benchmark::State& state) {
  sim::SimClock clock;
  wireless::ArqSender sender(wireless::ArqConfig{}, clock);
  std::size_t wire_bytes = 0;
  const auto count_bytes = [&wire_bytes](std::span<const std::uint8_t> wire) {
    wire_bytes += wire.size();
    return true;
  };
  sender.set_wire_sink(count_bytes);
  std::array<std::uint8_t, wireless::StateReport::kPackedSize> payload;
  wireless::StateReport{512, 1, 3, 9, 0}.pack_into(payload);
  std::uint8_t seq = 0;
  for (auto _ : state) {
    sender.send(wireless::FrameType::State, payload);
    sender.on_ack(seq++);
  }
  benchmark::DoNotOptimize(wire_bytes);
  if (sender.acks_received() != static_cast<std::uint64_t>(state.iterations())) {
    state.SkipWithError("a send/ack round trip was lost");
  }
}
BENCHMARK(BM_ArqSendAck);

/// The host's "link sim" layer: one warm SimDeviceLink at the host
/// ingest fault mix (1 % loss, 0.2 % bit flips, 0.5 % reorder, 0.5 %
/// ack loss) and ARQ settings, stepped one 0.1 s window per iteration.
/// Each window dispatches the telemetry ticks and retransmit deadlines,
/// then a minimal consumer drains the lane, CRC-checks each frame and
/// queues its ack. `s_per_frame` is the cost per offered report.
void BM_SimDeviceLink_StepWindow(benchmark::State& state) {
  host::IngestQueue lanes(/*lanes=*/1, /*lane_capacity=*/512);
  host::LinkFaultConfig faults;
  faults.frame_loss = 0.01;
  faults.bit_flip = 0.002;
  faults.reorder = 0.005;
  faults.ack_loss = 0.005;
  const host::HostIngestConfig defaults;
  host::SimDeviceLink link(/*device_id=*/0, /*lane=*/0, lanes, defaults.arq, faults,
                           1.0 / defaults.report_hz, /*duration_s=*/1e9, sim::Rng(11));
  std::array<host::RawRecord, 64> drained;
  double now_s = 0.0;
  const auto run_window = [&] {
    now_s += 0.1;
    link.step_window(now_s);
    for (std::size_t n = 0; (n = lanes.pop_batch(0, drained)) > 0;) {
      for (std::size_t i = 0; i < n; ++i) {
        const auto view = wireless::parse_wire_frame({drained[i].wire.data(), drained[i].len});
        if (view) link.queue_ack(view->seq);
      }
    }
  };
  for (int w = 0; w < 200; ++w) run_window();  // warm: queue and ack list at working depth
  const std::uint64_t offered_before = link.reports_offered();
  for (auto _ : state) {
    run_window();
    benchmark::DoNotOptimize(link.sender().transmissions());
  }
  const auto offered = static_cast<double>(link.reports_offered() - offered_before);
  state.counters["s_per_frame"] =
      benchmark::Counter(offered, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["retransmit_ratio"] =
      static_cast<double>(link.sender().retransmissions()) /
      static_cast<double>(link.sender().transmissions());
}
BENCHMARK(BM_SimDeviceLink_StepWindow);

/// The host's lane layer: one lane of 512 slots (perfbench's host_ingest
/// lane size) filled with 64 records, then drained in batches of 64 as
/// the consumer does, so the ring wraps every 8 iterations.
/// `s_per_record` is one push plus one pop.
void BM_IngestQueuePushPop(benchmark::State& state) {
  host::IngestQueue queue(/*lanes=*/8, /*lane_capacity=*/512);
  std::array<host::RawRecord, 64> drained;
  host::RawRecord record;
  record.len = 11;
  std::uint64_t moved = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < drained.size(); ++i) {
      record.t_us = moved + i;
      if (!queue.try_push(3, record)) state.SkipWithError("lane full");
    }
    moved += queue.pop_batch(3, drained);
    benchmark::DoNotOptimize(drained.back().t_us);
  }
  state.counters["s_per_record"] = benchmark::Counter(
      static_cast<double>(moved), benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_IngestQueuePushPop);

/// The host's admit layer: DeviceRegistry::admit over 2000 devices (the
/// host_ingest fleet) receiving their frames round-robin in order, as a
/// drained window delivers them.
void BM_DeviceRegistryAdmit(benchmark::State& state) {
  constexpr std::size_t kDevices = 2000;
  host::DeviceRegistry registry(kDevices);
  std::size_t device = 0;
  std::uint8_t seq = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.admit(static_cast<std::uint16_t>(device), seq));
    if (++device == kDevices) {
      device = 0;
      ++seq;
    }
  }
  if (registry.accepted() != static_cast<std::uint64_t>(state.iterations())) {
    state.SkipWithError("an in-order frame was not accepted");
  }
}
BENCHMARK(BM_DeviceRegistryAdmit);

/// The host's columnar-append layer: a fresh ColumnarWriter sized for,
/// then fed, 4096 accepted records shaped like a drained host stream
/// (256 devices in lane order per 38 Hz period, ADC drifting a few
/// counts). `s_per_record` is one append, the columns' allocation
/// included.
void BM_ColumnarAppend(benchmark::State& state) {
  constexpr std::size_t kRecords = 4096;
  std::vector<host::CompactRecord> stream(kRecords);
  for (std::size_t i = 0; i < kRecords; ++i) {
    host::CompactRecord& record = stream[i];
    record.device_id = static_cast<std::uint16_t>(i % 256);
    record.t_us = (i / 256) * 26316 + (i % 256) * 97;
    record.seq = static_cast<std::uint8_t>(i / 256);
    record.state = {static_cast<std::uint16_t>(512 + (i * 7) % 13), 1, 3, 9, 0};
  }
  for (auto _ : state) {
    host::ColumnarWriter writer(7);
    writer.reserve(kRecords);
    for (const host::CompactRecord& record : stream) writer.append(record);
    benchmark::DoNotOptimize(writer.records());
    benchmark::ClobberMemory();
  }
  state.counters["s_per_record"] =
      benchmark::Counter(static_cast<double>(state.iterations() * kRecords),
                         benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_ColumnarAppend);

/// One whole host ingest run at perfbench's host_ingest config (2000
/// devices, 8 lanes x 512 slots, 1 s of telemetry at the fault mix
/// above), at one thread. `bytes_allocated` and `allocations` count what
/// one run asks of the heap: the link array, the lanes, the registry,
/// the DSTL writer and the accepted stream once each, plus the per-device
/// ARQ-queue and ack-list growth.
void BM_RunHostIngest(benchmark::State& state) {
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
  std::uint64_t bytes = 0;
  std::uint64_t allocations = 0;
  std::uint64_t accepted = 0;
  for (auto _ : state) {
    const util::AllocGuard run;
    const host::HostIngestResult result = host::run_host_ingest(config);
    bytes = run.bytes();
    allocations = run.allocations();
    accepted = result.stats.frames_accepted;
    benchmark::DoNotOptimize(result.dstl.data());
  }
  state.counters["bytes_allocated"] = static_cast<double>(bytes);
  state.counters["allocations"] = static_cast<double>(allocations);
  state.counters["frames_accepted"] = static_cast<double>(accepted);
  state.counters["interposer_linked"] = util::alloc_interposer_linked() ? 1.0 : 0.0;
}
BENCHMARK(BM_RunHostIngest)->Unit(benchmark::kMillisecond);

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

/// One simulated second of the real default device: every firmware
/// timer (1 kHz button scan, 50 Hz ADC sample + island step, telemetry
/// frames, redraws) on the event queue. Arg 0 holds the hand still at
/// 17 cm (idle); arg 1 sweeps it 6..28 cm once per second, so the cursor
/// walks the phone menu's top level and the displays redraw. The device
/// is built and powered with the timer paused. tick_budget_used is the
/// share of the PIC's 10 MIPS second that the firmware charged
/// (mcu().cycles() / 1e7, construction and boot redraw included).
void BM_DeviceSecond(benchmark::State& state) {
  const auto menu_root = menu::make_phone_menu();
  const bool sweeping = state.range(0) != 0;
  auto hand = [sweeping](util::Seconds t) {
    return util::Centimeters{sweeping ? 17.0 + 11.0 * std::sin(2.0 * std::numbers::pi * t.value) : 17.0};
  };
  std::uint64_t cycles = 0;
  std::uint64_t redraws = 0;
  for (auto _ : state) {
    state.PauseTiming();
    sim::EventQueue queue;
    core::DistScrollDevice device(core::DistScrollDevice::Config{}, *menu_root, queue,
                                  sim::Rng(7));
    device.set_distance_provider_ref(hand);
    device.power_on();
    state.ResumeTiming();
    queue.run_until(util::Seconds{1.0});
    cycles = device.board().mcu().cycles();
    redraws = device.redraws();
    benchmark::DoNotOptimize(cycles);
  }
  state.counters["tick_budget_used"] = static_cast<double>(cycles) / 1e7;
  state.counters["redraws"] = static_cast<double>(redraws);
}
BENCHMARK(BM_DeviceSecond)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
