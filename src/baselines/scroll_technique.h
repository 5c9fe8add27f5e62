// Common interface over scrolling techniques for the comparison study
// (paper Section 7, Q1: "Is distance-based scrolling faster, equal or
// slower than other scrolling techniques?").
//
// Every technique is reduced to the 1-D control channel the user
// actually manipulates — a distance, a wrist angle, a pulled wheel, a
// key, a circular gesture — plus the technique's mapping from that
// channel to a cursor in a list. The human::MotionPlanner drives the
// channel with realistic reaches, tremor and perception delays; the
// technique turns the channel into cursor motion.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>

#include "util/function_ref.h"
#include "util/rounding.h"
#include "util/units.h"

namespace distscroll::baselines {

enum class ControlStyle : std::uint8_t {
  /// Channel position maps to an absolute cursor position (DistScroll).
  AbsolutePosition,
  /// Channel deflection from neutral sets cursor velocity (tilting).
  RateControl,
  /// Bounded channel; motion while engaged moves the cursor, then the
  /// channel must be clutched back (YoYo pull wheel).
  RelativeStroke,
  /// Unbounded relative channel (circular touch gesture).
  RelativeUnbounded,
  /// Discrete steps (up/down keys with auto-repeat).
  DiscreteSteps,
};

struct ControlSpec {
  ControlStyle style = ControlStyle::AbsolutePosition;
  double u_min = 0.0;       // physical channel range
  double u_max = 1.0;
  double u_neutral = 0.0;   // resting value
  /// Channel units per second the device itself limits (e.g. a wheel
  /// can only be pulled so fast). 0 = only the human limits speed.
  double max_rate = 0.0;
  std::string unit = "u";
};

/// The entry a continuous cursor position selects: clamped to the list,
/// then rounded half away from zero (std::lround, inline).
[[nodiscard]] inline std::size_t entry_at(double position, std::size_t level_size) {
  return util::round_nonneg(std::clamp(position, 0.0, static_cast<double>(level_size - 1)));
}

class ScrollTechnique {
 public:
  virtual ~ScrollTechnique() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual ControlSpec spec() const = 0;

  /// Start a trial over a list of `level_size` entries with the cursor
  /// at `start_index`.
  virtual void reset(std::size_t level_size, std::size_t start_index) = 0;

  [[nodiscard]] virtual std::size_t cursor() const = 0;
  [[nodiscard]] virtual std::size_t level_size() const = 0;

  /// Continuous techniques: the channel's value at time `now`. Called
  /// densely (every few ms) by the planner, or through on_control_block.
  virtual void on_control(util::Seconds now, double u) = 0;

  /// Control deadline: an on_control(now, u) with now < next_control_s()
  /// changes no state, draws no randomness and moves no output, so the
  /// planner may skip synthesising the hand sample for it. A deadline
  /// may be early (conservative: a call at or after it may still be a
  /// no-op) but never late. The default, -infinity, makes every call
  /// count; a forwarding wrapper that does not override this keeps the
  /// dense feed.
  [[nodiscard]] virtual double next_control_s() const {
    return -std::numeric_limits<double>::infinity();
  }

  /// Control period: after a call at `t` that counts (t >=
  /// next_control_s()), next_control_s() >= t + control_period_s(). A
  /// feeder may then stage only samples at least a period apart without
  /// asking for the deadline between them. 0, the default, claims
  /// nothing: stage every step from the deadline on.
  [[nodiscard]] virtual double control_period_s() const { return 0.0; }

  /// The hand signal of a control block: hand(k) is the channel's value
  /// at sample k, synthesised on demand.
  using HandSignal = util::FunctionRef<double(std::size_t)>;

  /// A block of control samples, in time order: on_control(now_s[k],
  /// hand(k)) for each k, with cursors_out[k] the cursor after sample k.
  /// now_s and cursors_out have equal length. The hand is pulled, not
  /// pushed: an override calls hand(k) at most once per k, in increasing
  /// k, and only for the samples whose value it reads. Overrides must
  /// match the per-sample loop bit for bit; the default is that loop, so
  /// forwarding wrappers keep working unchanged and see every sample.
  virtual void on_control_block(std::span<const double> now_s, HandSignal hand,
                                std::span<std::size_t> cursors_out) {
    for (std::size_t k = 0; k < now_s.size(); ++k) {
      on_control(util::Seconds{now_s[k]}, hand(k));
      cursors_out[k] = cursor();
    }
  }

  /// DiscreteSteps techniques: a key event. Default ignores.
  virtual void on_step(util::Seconds /*now*/, int /*delta*/) {}

  /// RelativeStroke techniques: engage/release the clutch. Default
  /// ignores.
  virtual void set_engaged(bool /*engaged*/) {}

  /// AbsolutePosition techniques: the channel value whose target region
  /// maps to `target`, and that region's width (for Fitts aiming).
  [[nodiscard]] virtual std::optional<double> target_u(std::size_t /*target*/) const {
    return std::nullopt;
  }
  [[nodiscard]] virtual double target_width_u(std::size_t /*target*/) const { return 0.1; }

  /// Whether the technique is one-handed and how it degrades with
  /// gloves (scales the planner's fine-motor penalty; 1 = insensitive).
  [[nodiscard]] virtual bool one_handed() const { return true; }
  [[nodiscard]] virtual double glove_sensitivity() const { return 1.0; }
};

}  // namespace distscroll::baselines
