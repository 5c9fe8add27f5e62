// The complete DistScroll prototype: Smart-Its board, GP2D120 ranger,
// two BT96040 displays, three push buttons, battery, wireless telemetry — and the firmware loop that turns
// distance into menu navigation (paper Sections 4 and 5.1).
//
// Usage model (matches Figure 1): the simulated user holds the device,
// its distance to the body is whatever the human model's hand provides
// via set_distance_provider(); scrolling follows the distance, entries
// are selected "by clicking a specified button, here the top right
// button which is most conveniently operated with the thumb".
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/calibration_store.h"
#include "core/chunked_scroll.h"
#include "core/dual_sensor.h"
#include "core/fast_scroll.h"
#include "core/island_mapper.h"
#include "core/scroll_controller.h"
#include "core/sensor_curve.h"
#include "display/bt96040.h"
#include "display/display_driver.h"
#include "hw/smart_its.h"
#include "input/button.h"
#include "input/debouncer.h"
#include "menu/menu.h"
#include "obs/tracer.h"
#include "sensors/gp2d120.h"
#include "util/function_ref.h"
#include "wireless/packet.h"

namespace distscroll::core {

enum class LongMenuStrategy : std::uint8_t {
  Plain,    // islands = level size, however many that is
  Chunked,  // islands = chunk size; aux button pages chunks
};

class DistScrollDevice {
 public:
  struct Config {
    hw::SmartIts::Config board{};
    sensors::Gp2d120Model::Config sensor{};
    ScrollController::Config scroll{};
    LongMenuStrategy long_menu = LongMenuStrategy::Plain;
    std::size_t chunk_size = 10;
    bool enable_fast_scroll = false;
    /// Second (recessed) ranger resolving the < 4 cm fold-back
    /// ambiguity (the board's unused second sensor, Section 4).
    bool use_dual_sensor = false;
  };

  /// The 1 kHz button scan period (trace replay injects recorded edges
  /// on the same grid).
  static constexpr util::Seconds kButtonTick{1e-3};

  DistScrollDevice(Config config, const menu::MenuNode& menu_root, sim::EventQueue& queue,
                   sim::Rng rng);

  // --- the physical situation ------------------------------------------
  /// Hot-path (per-sample) provider views. Non-owning: the caller keeps
  /// the callable alive while the device may sample.
  using DistanceProvider = util::FunctionRef<util::Centimeters(util::Seconds)>;

  /// The hand holding the device: true body-to-device distance over
  /// time. Owning form — a setup-time boundary; the firmware reads it
  /// through a FunctionRef view on the sampling path.
  // ds-lint: allow(no-std-function-hot-path) owning setup-time slot; sampling uses the _ref view
  void set_distance_provider(std::function<util::Centimeters(util::Seconds)> provider);
  /// Non-owning form for hot callers that already own a stable callable.
  void set_distance_provider_ref(DistanceProvider provider);
  /// What the sensor looks at (clothing, lab coat, reflective vest...).
  void set_surface(sensors::SurfaceProfile surface);

  void power_on();
  void power_off();
  [[nodiscard]] bool powered() const { return powered_; }

  /// Boot-time calibration: load a persisted record from the data
  /// EEPROM (falls back to the default curve when missing or
  /// corrupt). Returns whether a stored calibration was applied.
  bool load_calibration_from_eeprom();
  /// Persist the current curve (e.g. after a calibration sweep).
  void save_calibration_to_eeprom(const CalibrationResult& calibration);
  [[nodiscard]] hw::Eeprom& eeprom() { return eeprom_; }

  // --- the user's fingers ------------------------------------------------
  input::Button& select_button() { return *buttons_[0]; }  // top right, thumb
  input::Button& back_button() { return *buttons_[1]; }    // left side
  input::Button& aux_button() { return *buttons_[2]; }     // left side (chunk paging)

  // --- state inspection (host/study side) --------------------------------
  [[nodiscard]] const menu::MenuCursor& cursor() const { return cursor_; }
  [[nodiscard]] const display::Bt96040& top_display() const { return top_panel_; }
  [[nodiscard]] const display::Bt96040& bottom_display() const { return bottom_panel_; }
  [[nodiscard]] hw::SmartIts& board() { return board_; }
  [[nodiscard]] const hw::SmartIts& board() const { return board_; }
  [[nodiscard]] const IslandMapper& mapper() const { return mapper_; }
  [[nodiscard]] const ScrollController& controller() const { return controller_; }
  [[nodiscard]] const Config& config() const { return config_; }
  /// The firmware's calibrated curve (the default until a calibration
  /// is loaded from the EEPROM).
  [[nodiscard]] const SensorCurve& curve() const { return curve_; }
  [[nodiscard]] std::optional<std::size_t> current_chunk() const;
  [[nodiscard]] util::AdcCounts last_counts() const { return last_counts_; }

  struct SelectionEvent {
    double time_s;
    std::string label;
    bool is_leaf;
    std::size_t depth;  // depth after the event
  };
  [[nodiscard]] const std::vector<SelectionEvent>& selections() const { return selections_; }
  // ds-lint: allow(no-std-function-hot-path) fires per leaf activation (seconds apart), not per sample
  void on_leaf_activated(std::function<void(const SelectionEvent&)> cb) {
    leaf_callback_ = std::move(cb);
  }

  /// Redraws counted (for display-churn diagnostics).
  [[nodiscard]] std::uint64_t redraws() const { return redraws_; }

  // --- observability ------------------------------------------------------
  /// Attach a structured tracer (nullptr detaches). Binds the tracer's
  /// clock to the device's event queue and propagates to the scroll
  /// controller and ranger. Tracing must never perturb behaviour —
  /// pinned by the tracing on/off property test.
  void attach_tracer(obs::Tracer* tracer);
  [[nodiscard]] obs::Tracer* tracer() const { return tracer_; }

  // --- replay hooks (obs/replay.h) ---------------------------------------
  /// When set, the firmware consumes ADC counts from this source instead
  /// of sampling the ranger through the ADC — the byte-exact replay path
  /// for recorded AdcRead streams. Returning nullopt holds the previous
  /// counts (the zero-order hold a stalled sensor would give). Cycle
  /// accounting is unchanged, so the MCU budget stays comparable.
  // ds-lint: allow(no-std-function-hot-path) replay-only hook; owning slot set once per replay
  void set_counts_override(std::function<std::optional<util::AdcCounts>()> source) {
    counts_override_ = std::move(source);
  }
  /// Deliver a debounced button edge directly (bypassing GPIO bounce and
  /// the debouncer): exactly what the debouncer callback would do,
  /// including the trace event. Used by trace replay to re-drive
  /// recorded ButtonEdge events.
  void inject_button_edge(std::size_t button, bool pressed) { on_button_edge(button, pressed); }

 private:
  void firmware_tick();
  void button_tick();
  void on_button_edge(std::size_t index, bool pressed);
  void rebuild_mapping();
  void apply_entry(std::size_t absolute_index);
  void handle_select();
  void handle_back();
  void advance_chunk();
  void redraw();
  void send_state_frame();

  Config config_;
  // Calibrated state: load_calibration_from_eeprom() replaces the curve
  // and narrows the usable range.
  SensorCurve curve_{};
  IslandMapper::Config islands_{};
  sim::EventQueue* queue_;
  hw::SmartIts board_;
  hw::Eeprom eeprom_;
  sensors::Gp2d120Model ranger_;
  /// The board's second (recessed) GP2D120. The part is always populated
  /// on the board — always constructed, only sampled when
  /// config_.use_dual_sensor enables the resolver.
  sensors::Gp2d120Model secondary_ranger_;
  display::Bt96040 top_panel_;
  display::Bt96040 bottom_panel_;
  display::DisplayDriver top_driver_;
  display::DisplayDriver bottom_driver_;
  std::vector<std::unique_ptr<input::Button>> buttons_;
  std::vector<input::Debouncer> debouncers_;
  /// Stable contexts for the debouncers' non-owning edge callbacks.
  struct ButtonCtx {
    DistScrollDevice* device = nullptr;
    std::size_t index = 0;
  };
  std::array<ButtonCtx, 3> button_ctx_{};

  menu::MenuCursor cursor_;

  // Direct members, rebuilt in place by rebuild_mapping(): level changes
  // happen every few seconds of simulated time, and the old
  // unique_ptr-per-rebuild churned the heap on each one. The controller
  // keeps a pointer to mapper_, which is address-stable here.
  IslandMapper mapper_;
  ScrollController controller_;
  std::optional<ChunkedScroll> chunker_;
  std::optional<FastScrollMode> fast_scroll_;
  std::optional<DualRangeResolver> dual_resolver_;

  // Provider: an owning slot filled at the setup boundary, read through
  // the non-owning two-pointer view on the sampling path.
  // ds-lint: allow(no-std-function-hot-path) owning setup-time slot behind the FunctionRef view
  std::function<util::Centimeters(util::Seconds)> distance_owner_;
  DistanceProvider distance_provider_;
  // ds-lint: allow(no-std-function-hot-path) replay-only; a replay session sets it once
  std::function<std::optional<util::AdcCounts>()> counts_override_;
  obs::Tracer* tracer_ = nullptr;

  std::size_t ranger_channel_ = 0;
  std::size_t secondary_channel_ = 0;

  bool powered_ = false;
  std::size_t firmware_timer_ = 0;
  std::size_t button_timer_ = 0;
  int ticks_since_telemetry_ = 0;
  std::uint8_t telemetry_seq_ = 0;
  util::AdcCounts last_counts_{0};
  std::uint64_t redraws_ = 0;
  std::vector<SelectionEvent> selections_;
  // ds-lint: allow(no-std-function-hot-path) invoked per leaf activation, not per sample
  std::function<void(const SelectionEvent&)> leaf_callback_;
};

}  // namespace distscroll::core
