#include "util/crc.h"

#include <array>
#include <cstddef>

namespace distscroll::util {

namespace {

// crc8 of the single byte i: one step of the MSB-first register.
constexpr std::array<std::uint8_t, 256> make_crc8_table() {
  std::array<std::uint8_t, 256> table{};
  for (unsigned i = 0; i < 256; ++i) {
    auto crc = static_cast<std::uint8_t>(i);
    for (int bit = 0; bit < 8; ++bit) {
      crc = static_cast<std::uint8_t>((crc & 0x80u) ? (crc << 1) ^ 0x31u : crc << 1);
    }
    table[i] = crc;
  }
  return table;
}

// Slice-by-8 tables for the reflected CRC-32: slice[0] is the classic
// byte table; slice[k][i] advances slice[k-1][i] by one more zero byte,
// so eight input bytes fold into the register with eight lookups.
using Crc32Slices = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Crc32Slices make_crc32_slices() {
  Crc32Slices slice{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    slice[0][i] = crc;
  }
  for (std::size_t k = 1; k < slice.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = slice[k - 1][i];
      slice[k][i] = (prev >> 8) ^ slice[0][prev & 0xFFu];
    }
  }
  return slice;
}

constexpr auto kCrc8Table = make_crc8_table();
constexpr auto kCrc32Slices = make_crc32_slices();

// Little-endian load, independent of host byte order.
std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint8_t crc8(std::span<const std::uint8_t> data) {
  std::uint8_t crc = 0x00;
  for (std::uint8_t byte : data) crc = kCrc8Table[crc ^ byte];
  return crc;
}

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  const auto& t = kCrc32Slices;
  std::uint32_t crc = 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_le32(p) ^ crc;
    const std::uint32_t hi = load_le32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
          t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xFFu];
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace distscroll::util
