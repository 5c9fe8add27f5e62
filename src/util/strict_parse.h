// Strict unsigned integer parsing shared by the library's environment
// knobs (DISTSCROLL_THREADS, the bench size variables) and the
// command-line tools (tools/cli_args.h), plus the one thread-count cap
// they all enforce.
//
// A parse takes the whole text or fails: no sign, no suffix, no leading
// blanks and no overflow (strtoull sets ERANGE, which a bare strtol
// check ignores, so "99999999999999999999" would read as 2^64-1).
#pragma once

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>

namespace distscroll::util {

/// Worker-thread cap: above the core count of common hosts, and low
/// enough that the pool's thread stacks fit a few GiB of address space.
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

/// Environment variable `name` as a whole decimal in [lo, hi]: `fallback`
/// when unset; nullopt, after one stderr line naming the variable, its
/// value and the range, when it is set to anything else.
inline std::optional<std::uint64_t> env_u64(const char* name, std::uint64_t fallback,
                                            std::uint64_t lo, std::uint64_t hi = UINT64_MAX) {
  const char* text = std::getenv(name);
  if (text == nullptr) return fallback;
  std::uint64_t value = 0;
  if (parse_u64(text, value, lo, hi)) return value;
  const auto low = static_cast<unsigned long long>(lo);
  const auto high = static_cast<unsigned long long>(hi);
  if (hi == UINT64_MAX) {
    std::fprintf(stderr, "%s='%s' rejected: expected a whole number >= %llu\n", name, text, low);
  } else {
    std::fprintf(stderr, "%s='%s' rejected: expected a whole number in %llu..%llu\n", name,
                 text, low, high);
  }
  return std::nullopt;
}

}  // namespace distscroll::util
