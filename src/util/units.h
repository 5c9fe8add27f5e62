// Strong unit types used throughout the DistScroll simulator.
//
// The firmware, sensor models and human model all exchange physical
// quantities; mixing up centimetres, volts and ADC counts is the classic
// source of silent bugs in sensor code, so each gets its own vocabulary
// type. The types are intentionally tiny value wrappers: trivially
// copyable, constexpr-friendly, and explicitly convertible to their raw
// representation.
#pragma once

#include <compare>
#include <cstdint>

namespace distscroll::util {

/// Distance in centimetres. The GP2D120's useful range is roughly
/// 4 cm .. 30 cm (paper Section 4.2).
struct Centimeters {
  double value{0.0};

  constexpr Centimeters() = default;
  constexpr explicit Centimeters(double v) : value(v) {}

  constexpr auto operator<=>(const Centimeters&) const = default;
  constexpr Centimeters operator+(Centimeters o) const { return Centimeters{value + o.value}; }
  constexpr Centimeters operator-(Centimeters o) const { return Centimeters{value - o.value}; }
  constexpr Centimeters operator*(double s) const { return Centimeters{value * s}; }
  constexpr Centimeters operator/(double s) const { return Centimeters{value / s}; }
};

/// Analog voltage, e.g. the GP2D120 output or an ADXL311 axis output.
struct Volts {
  double value{0.0};

  constexpr Volts() = default;
  constexpr explicit Volts(double v) : value(v) {}

  constexpr auto operator<=>(const Volts&) const = default;
  constexpr Volts operator+(Volts o) const { return Volts{value + o.value}; }
  constexpr Volts operator-(Volts o) const { return Volts{value - o.value}; }
  constexpr Volts operator*(double s) const { return Volts{value * s}; }
};

/// Raw output of the 10-bit successive-approximation ADC on the
/// Smart-Its board (0..1023).
struct AdcCounts {
  std::uint16_t value{0};

  constexpr AdcCounts() = default;
  constexpr explicit AdcCounts(std::uint16_t v) : value(v) {}

  constexpr auto operator<=>(const AdcCounts&) const = default;
};

/// Simulated time in seconds (double; the event queue keys on this).
struct Seconds {
  double value{0.0};

  constexpr Seconds() = default;
  constexpr explicit Seconds(double v) : value(v) {}

  constexpr auto operator<=>(const Seconds&) const = default;
  constexpr Seconds operator+(Seconds o) const { return Seconds{value + o.value}; }
  constexpr Seconds operator-(Seconds o) const { return Seconds{value - o.value}; }
  constexpr Seconds operator*(double s) const { return Seconds{value * s}; }
};

/// Acceleration in units of standard gravity, as the ADXL311 reports it.
struct Gs {
  double value{0.0};

  constexpr Gs() = default;
  constexpr explicit Gs(double v) : value(v) {}

  constexpr auto operator<=>(const Gs&) const = default;
};

/// Angle in radians (device tilt).
struct Radians {
  double value{0.0};

  constexpr Radians() = default;
  constexpr explicit Radians(double v) : value(v) {}

  constexpr auto operator<=>(const Radians&) const = default;
  constexpr Radians operator+(Radians o) const { return Radians{value + o.value}; }
  constexpr Radians operator-(Radians o) const { return Radians{value - o.value}; }
};

}  // namespace distscroll::util
