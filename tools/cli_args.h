// Strict numeric flag parsing shared by the fleet_run and host_ingest
// tools, plus the documented upper bounds of their size flags.
//
// Every parse takes the whole argument or fails: no sign, no suffix, no
// leading blanks, no overflow (strtoull/strtod set ERANGE, which used to
// be ignored, so "99999999999999999999" read as 2^64-1), and no NaN or
// infinity for real-valued flags (NaN passed every range check). A
// failed parse or an out-of-range value is a usage error (exit 64).
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>

namespace distscroll::tools {

/// --threads: above the core count of common hosts, and low enough that
/// the worker pool's thread stacks fit a few GiB of address space.
inline constexpr std::uint64_t kMaxThreads = 256;

/// Unsigned decimal integer in [lo, hi].
inline bool parse_u64(const char* text, std::uint64_t& out, std::uint64_t lo = 0,
                      std::uint64_t hi = UINT64_MAX) {
  if (text == nullptr || std::isdigit(static_cast<unsigned char>(*text)) == 0) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno == ERANGE || value < lo || value > hi) return false;
  out = static_cast<std::uint64_t>(value);
  return true;
}

/// Finite real number (no NaN, no infinity, no over- or underflow).
inline bool parse_finite(const char* text, double& out) {
  if (text == nullptr || *text == '\0' || std::isspace(static_cast<unsigned char>(*text)) != 0) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE || !std::isfinite(value)) return false;
  out = value;
  return true;
}

/// Probability in [0, 1].
inline bool parse_prob(const char* text, double& out) {
  double value = 0.0;
  if (!parse_finite(text, value) || value < 0.0 || value > 1.0) return false;
  out = value;
  return true;
}

}  // namespace distscroll::tools
