// Strict numeric flag parsing shared by the fleet_run and host_ingest
// tools. Integers and the --threads cap come from util/strict_parse.h,
// which the library's environment knobs use too.
//
// Every parse takes the whole argument or fails: no sign, no suffix, no
// leading blanks, no overflow (strtod sets ERANGE, which used to be
// ignored), and no NaN or infinity for real-valued flags (NaN passed
// every range check). A failed parse or an out-of-range value is a
// usage error (exit 64).
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "util/strict_parse.h"

namespace distscroll::tools {

using util::kMaxThreads;
using util::parse_u64;

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
