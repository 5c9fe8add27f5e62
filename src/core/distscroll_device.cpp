#include "core/distscroll_device.h"

#include <algorithm>
#include <cstdio>

#include "obs/stage_timer.h"
#include "util/hot_path.h"

namespace distscroll::core {

namespace {
constexpr std::uint8_t kTopDisplayAddress = 0x3C;
constexpr std::uint8_t kBottomDisplayAddress = 0x3D;
// ADC conversion busy-wait at 10 MIPS (~44 us) in instruction cycles.
constexpr std::uint64_t kAdcCycles = 440;
constexpr std::uint64_t kButtonScanCycles = 12;
constexpr std::uint64_t kRedrawCycles = 900;  // formatting + I2C byte pumping
constexpr double kRangerDrawMa = 33.0;        // GP2D120 typ. supply current
// A state frame goes out every second firmware tick.
constexpr int kTelemetryDivider = 2;

// Default provider until the study wires a hand model in: the device
// rests at a mid-range distance.
util::Centimeters default_distance(util::Seconds) { return util::Centimeters{17.0}; }
}  // namespace

DistScrollDevice::DistScrollDevice(Config config, const menu::MenuNode& menu_root,
                                   sim::EventQueue& queue, sim::Rng rng)
    : config_(config),
      queue_(&queue),
      board_(config.board, queue, rng.fork(1)),
      ranger_(config.sensor, rng.fork(2)),
      secondary_ranger_(config.sensor, rng.fork(20)),
      top_driver_(board_.i2c(), kTopDisplayAddress),
      bottom_driver_(board_.i2c(), kBottomDisplayAddress),
      cursor_(menu_root),
      mapper_(curve_, 1, islands_),
      controller_(mapper_, config.scroll),
      distance_provider_(default_distance) {
  board_.i2c().attach(kTopDisplayAddress, &top_panel_);
  board_.i2c().attach(kBottomDisplayAddress, &bottom_panel_);

  // Both ranger channels are wired unconditionally — the parts are on
  // the board whether or not the config samples them, and an unsampled
  // channel draws nothing from the noise stream. The sources are
  // non-owning delegates: context is the device itself.
  ranger_channel_ = board_.adc().attach(hw::AnalogSource(this, [](void* ctx, util::Seconds now) {
    auto* self = static_cast<DistScrollDevice*>(ctx);
    return self->ranger_.output(self->distance_provider_(now), now);
  }));
  // The second GP2D120, recessed in the case: it sees the same target
  // farther away, always on the monotone branch.
  secondary_channel_ = board_.adc().attach(hw::AnalogSource(this, [](void* ctx, util::Seconds now) {
    auto* self = static_cast<DistScrollDevice*>(ctx);
    const double d = self->distance_provider_(now).value + DualRangeResolver::kOffsetCm;
    return self->secondary_ranger_.output(util::Centimeters{d}, now);
  }));

  for (std::size_t pin = 0; pin < 3; ++pin) {
    buttons_.push_back(
        std::make_unique<input::Button>(board_.gpio(), pin, queue, rng.fork(10 + pin)));
    debouncers_.emplace_back();
    button_ctx_[pin] = ButtonCtx{this, pin};
  }
  // All debounced edges funnel through on_button_edge: one place that
  // traces the edge and dispatches it — and the same entry point trace
  // replay injects recorded edges into.
  for (std::size_t i = 0; i < debouncers_.size(); ++i) {
    debouncers_[i].on_press(input::Debouncer::Callback(&button_ctx_[i], [](void* ctx) {
      auto* c = static_cast<ButtonCtx*>(ctx);
      c->device->on_button_edge(c->index, true);
    }));
    debouncers_[i].on_release(input::Debouncer::Callback(&button_ctx_[i], [](void* ctx) {
      auto* c = static_cast<ButtonCtx*>(ctx);
      c->device->on_button_edge(c->index, false);
    }));
  }

  // Battery consumers beyond the base board: ranger (GP2D120 typ. 33 mA)
  // and the two displays.
  board_.battery().add_consumer("gp2d120", kRangerDrawMa);
  board_.battery().add_consumer(
      "displays", top_panel_.current_draw_ma() + bottom_panel_.current_draw_ma());

  // Firmware static memory: island table (4 B/entry, worst case 64
  // entries), frame buffer shadows are in the display controllers, not
  // the PIC.
  board_.mcu().reserve_ram("island-table", 256);
  board_.mcu().reserve_ram("fifos+state", 192);
  board_.mcu().reserve_flash("firmware", 14 * 1024);

  if (config_.use_dual_sensor) {
    dual_resolver_.emplace(curve_, curve_);
    board_.mcu().reserve_ram("dual-sensor-state", 16);
  }

  rebuild_mapping();
}

void DistScrollDevice::set_distance_provider(
    std::function<util::Centimeters(util::Seconds)> provider) {
  distance_owner_ = std::move(provider);
  distance_provider_ = DistanceProvider(distance_owner_);
}

void DistScrollDevice::set_distance_provider_ref(DistanceProvider provider) {
  distance_owner_ = nullptr;
  distance_provider_ = provider;
}

void DistScrollDevice::set_surface(sensors::SurfaceProfile surface) {
  ranger_.set_surface(surface);
}

void DistScrollDevice::attach_tracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  if (tracer_ != nullptr) tracer_->bind_clock(*queue_);
  ranger_.set_tracer(tracer);
  controller_.set_tracer(tracer);
}

void DistScrollDevice::on_button_edge(std::size_t index, bool pressed) {
  DS_TRACE(tracer_, obs::EventKind::ButtonEdge, static_cast<std::uint32_t>(index),
           pressed ? 1u : 0u);
  if (!pressed) return;
  switch (index) {
    case 0: handle_select(); break;
    case 1: handle_back(); break;
    default: advance_chunk(); break;
  }
}

void DistScrollDevice::power_on() {
  if (powered_) return;
  powered_ = true;
  firmware_timer_ = board_.mcu().start_timer(kFirmwareTick, [this] { firmware_tick(); });
  button_timer_ = board_.mcu().start_timer(kButtonTick, [this] { button_tick(); });
  redraw();
}

void DistScrollDevice::power_off() {
  if (!powered_) return;
  powered_ = false;
  board_.mcu().stop_timer(firmware_timer_);
  board_.mcu().stop_timer(button_timer_);
}

std::optional<std::size_t> DistScrollDevice::current_chunk() const {
  if (!chunker_) return std::nullopt;
  return chunker_->chunk();
}

void DistScrollDevice::rebuild_mapping() {
  const std::size_t level_size = std::max<std::size_t>(1, cursor_.level_size());
  std::size_t islands = level_size;
  chunker_.reset();
  if (config_.long_menu == LongMenuStrategy::Chunked && level_size > config_.chunk_size) {
    chunker_.emplace(level_size, config_.chunk_size);
    chunker_->jump_to_chunk(chunker_->chunk_of(cursor_.index()));
    islands = chunker_->entries_in_chunk();
  }

  mapper_.rebuild(curve_, islands, islands_);
  controller_.reinitialize(config_.scroll);
  controller_.set_tracer(tracer_);
  if (config_.enable_fast_scroll) {
    // The turbo zone starts just above the nearest island's counts.
    fast_scroll_.emplace(
        static_cast<std::uint16_t>(std::min(1020, mapper_.islands().front().high + 12)));
  } else {
    fast_scroll_.reset();
  }
  // Rebuilding the island table costs the firmware real work (divides
  // through the curve): ~220 cycles per entry.
  board_.mcu().charge_cycles(60 + 220 * islands);
}

void DistScrollDevice::apply_entry(std::size_t absolute_index) {
  if (absolute_index != cursor_.index()) {
    cursor_.move_to(absolute_index);
    DS_TRACE(tracer_, obs::EventKind::CursorMove, static_cast<std::uint32_t>(cursor_.index()),
             static_cast<std::uint32_t>(cursor_.depth()));
    redraw();
  }
}

// The per-sample firmware path: steady-state allocation-free (DS_HOT is
// lint-enforced; tests/alloc_guard_test.cpp pins it empirically).
// Cursor moves leave the region — redraw() builds display strings and
// may allocate, which is why it is outside the markers: the no-alloc
// claim is the *sampling* loop, holding distance steady.
DS_HOT_BEGIN
void DistScrollDevice::firmware_tick() {
  if (!powered_) return;
  auto& mcu = board_.mcu();
  const util::Seconds now = queue_->now();

  {
    DS_STAGE(AdcSample);
    // Sample the ranger through the ADC (the MCU busy-waits conversion),
    // or consume the replay override's recorded counts stream. Cycle
    // cost is identical either way so replays keep the MCU budget.
    if (counts_override_) {
      if (const auto forced = counts_override_()) last_counts_ = *forced;
    } else {
      last_counts_ = board_.adc().sample(ranger_channel_, now);
    }
    mcu.charge_cycles(kAdcCycles);
  }
  DS_TRACE(tracer_, obs::EventKind::AdcRead, static_cast<std::uint32_t>(ranger_channel_),
           last_counts_.value);

  // --- dual-sensor fold resolution (the board's second GP2D120) ----------
  bool sample_valid = true;
  bool fold_zone = false;
  util::AdcCounts effective_counts = last_counts_;
  if (dual_resolver_) {
    DS_STAGE(Sensor);
    const auto secondary = board_.adc().sample(secondary_channel_, now);
    mcu.charge_cycles(kAdcCycles + 180);  // two inversions + compare
    const auto resolution = dual_resolver_->resolve(last_counts_, secondary);
    if (!resolution) {
      sample_valid = false;  // unexplained pair: glitch, skip sample
    } else if (resolution->folded) {
      fold_zone = true;  // unambiguous "too close"
    } else {
      effective_counts = curve_.counts_at(resolution->distance);
    }
  }

  // --- expert turbo zone --------------------------------------------------
  if (fast_scroll_ && sample_valid) {
    const int steps = dual_resolver_ ? fast_scroll_->on_zone(now, fold_zone)
                                     : fast_scroll_->on_sample(now, last_counts_);
    if (steps > 0) {
      mcu.charge_cycles(20);
      if (chunker_) {
        for (int i = 0; i < steps; ++i) advance_chunk();
      } else {
        const int dir = (config_.scroll.direction == ScrollDirection::TowardUserScrollsDown)
                            ? steps
                            : -steps;
        cursor_.move_by(dir);
        DS_TRACE(tracer_, obs::EventKind::CursorMove,
                 static_cast<std::uint32_t>(cursor_.index()),
                 static_cast<std::uint32_t>(cursor_.depth()));
        redraw();
      }
    }
  }

  // --- distance -> island -> entry -----------------------------------------
  if (sample_valid && !fold_zone) {
    DS_STAGE(Controller);
    const ScrollController::Update update = controller_.on_sample(effective_counts);
    mcu.charge_cycles(update.cycles);
    if (update.menu_index) {
      apply_entry(chunker_ ? chunker_->to_absolute(*update.menu_index) : *update.menu_index);
    }
  }

  // Battery bookkeeping per tick; a depleted battery drops the
  // regulator and the device browns out.
  board_.battery().consume(kFirmwareTick);
  if (board_.battery().depleted()) {
    power_off();
    return;
  }

  if (++ticks_since_telemetry_ >= kTelemetryDivider) {
    ticks_since_telemetry_ = 0;
    send_state_frame();
  }
}
DS_HOT_END

bool DistScrollDevice::load_calibration_from_eeprom() {
  const auto calibration = CalibrationStore::load(eeprom_);
  if (!calibration) return false;
  curve_ = calibration->curve;
  islands_.near = calibration->usable_near;
  // Keep the current far bound if the stored one extends beyond it:
  // comfort (arm length) caps the range before the sensor does.
  if (calibration->usable_far < islands_.far) {
    islands_.far = calibration->usable_far;
  }
  rebuild_mapping();
  return true;
}

void DistScrollDevice::save_calibration_to_eeprom(const CalibrationResult& calibration) {
  // The firmware stalls for the EEPROM's self-timed writes.
  const util::Seconds wait = CalibrationStore::save(eeprom_, calibration);
  board_.mcu().charge_cycles(static_cast<std::uint64_t>(wait.value * 10e6));
}

void DistScrollDevice::button_tick() {
  if (!powered_) return;
  for (std::size_t i = 0; i < debouncers_.size(); ++i) {
    debouncers_[i].tick(board_.gpio().read(i));
  }
  board_.mcu().charge_cycles(kButtonScanCycles);
}

void DistScrollDevice::handle_select() {
  const menu::MenuNode& target = cursor_.highlighted();
  SelectionEvent event{queue_->now().value, target.label(), target.is_leaf(), cursor_.depth()};
  if (cursor_.enter()) {
    event.depth = cursor_.depth();
    DS_TRACE(tracer_, obs::EventKind::CursorMove, static_cast<std::uint32_t>(cursor_.index()),
             static_cast<std::uint32_t>(cursor_.depth()));
    rebuild_mapping();
    redraw();
  } else {
    // Leaf activation: the application-level "select" action.
    if (leaf_callback_) leaf_callback_(event);
  }
  selections_.push_back(std::move(event));
}

void DistScrollDevice::handle_back() {
  if (cursor_.back()) {
    DS_TRACE(tracer_, obs::EventKind::CursorMove, static_cast<std::uint32_t>(cursor_.index()),
             static_cast<std::uint32_t>(cursor_.depth()));
    rebuild_mapping();
    redraw();
  }
}

void DistScrollDevice::advance_chunk() {
  if (!chunker_) return;
  if (!chunker_->next_chunk()) chunker_->jump_to_chunk(0);  // wrap around
  const std::size_t islands = chunker_->entries_in_chunk();
  if (islands != mapper_.entries()) {
    // The last chunk can be short: the island table must match it.
    mapper_.rebuild(curve_, islands, islands_);
    controller_.reinitialize(config_.scroll);
    controller_.set_tracer(tracer_);
    board_.mcu().charge_cycles(60 + 220 * islands);
  } else {
    controller_.reset();
  }
  cursor_.move_to(chunker_->to_absolute(0));
  DS_TRACE(tracer_, obs::EventKind::CursorMove, static_cast<std::uint32_t>(cursor_.index()),
           static_cast<std::uint32_t>(cursor_.depth()));
  redraw();
}

void DistScrollDevice::redraw() {
  DS_STAGE(Flush);
  ++redraws_;
  board_.mcu().charge_cycles(kRedrawCycles);
  DS_TRACE(tracer_, obs::EventKind::DisplayFlush, static_cast<std::uint32_t>(cursor_.index()),
           static_cast<std::uint32_t>(std::max<std::size_t>(1, cursor_.level_size())));

  // --- top display: 5-line menu window around the cursor -----------------
  const menu::MenuNode& level = cursor_.current_level();
  const std::size_t size = level.child_count();
  std::size_t window_start = 0;
  if (size > display::kTextLines) {
    const std::size_t cursor_index = cursor_.index();
    const std::size_t half = display::kTextLines / 2;
    window_start = (cursor_index > half) ? cursor_index - half : 0;
    window_start = std::min(window_start, size - display::kTextLines);
  }
  std::array<std::string, display::kTextLines> lines{};
  int highlight = -1;
  for (int row = 0; row < display::kTextLines; ++row) {
    const std::size_t entry = window_start + static_cast<std::size_t>(row);
    if (entry >= size) break;
    lines[static_cast<std::size_t>(row)] = level.child(entry).label();
    if (entry == cursor_.index()) highlight = row;
  }
  top_driver_.show(lines, highlight);

  // --- bottom display: the paper's debug/state information ----------------
  char buf[24];
  std::array<std::string, display::kTextLines> debug{};
  std::snprintf(buf, sizeof(buf), "cnt %4u", last_counts_.value);
  debug[0] = buf;
  std::snprintf(buf, sizeof(buf), "lvl %zu  idx %zu/%zu", cursor_.depth(), cursor_.index() + 1,
                size);
  debug[1] = buf;
  if (chunker_) {
    std::snprintf(buf, sizeof(buf), "chunk %zu/%zu", chunker_->chunk() + 1,
                  chunker_->chunk_count());
    debug[2] = buf;
  }
  std::snprintf(buf, sizeof(buf), "bat %3.0f%%", board_.battery().remaining_fraction() * 100.0);
  debug[3] = buf;
  debug[4] = fast_scroll_ && fast_scroll_->active() ? "TURBO" : "";
  bottom_driver_.show(debug, -1);
}

DS_HOT_BEGIN
void DistScrollDevice::send_state_frame() {
  wireless::StateReport report;
  report.adc_counts = last_counts_.value;
  report.menu_depth = static_cast<std::uint8_t>(cursor_.depth());
  report.cursor_index = static_cast<std::uint8_t>(std::min<std::size_t>(255, cursor_.index()));
  report.level_size = static_cast<std::uint8_t>(std::min<std::size_t>(255, cursor_.level_size()));
  for (std::size_t i = 0; i < debouncers_.size(); ++i) {
    if (debouncers_[i].pressed()) report.buttons |= static_cast<std::uint8_t>(1u << i);
  }
  // Stack-buffer encode (bytes identical to wireless::encode): the
  // state frame fires every kTelemetryDivider ticks, squarely inside
  // the sample loop's no-allocation contract.
  std::array<std::uint8_t, wireless::StateReport::kPackedSize> payload{};
  report.pack_into(payload);
  std::array<std::uint8_t, wireless::kMaxEncodedFrame> wire{};
  const std::size_t wire_len =
      wireless::encode_into(wireless::FrameType::State, telemetry_seq_++, payload, wire);
  for (std::size_t i = 0; i < wire_len; ++i) {
    board_.uart().transmit(wire[i]);
  }
  board_.mcu().charge_cycles(120);
}
DS_HOT_END

}  // namespace distscroll::core
