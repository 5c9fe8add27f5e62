// The CRC-8 of the wireless framing between the DistScroll prototype
// and the logging PC, and the CRC-32 that seals checkpoint and DSTL
// files. Both are table-driven (they sit on the host ingest path).
#pragma once

#include <cstdint>
#include <span>

namespace distscroll::util {

/// CRC-8, polynomial 0x31 (x^8+x^5+x^4+1), non-reflected (MSB first),
/// init 0x00, no final xor: crc8("123456789") == 0xA2. Not the Dallas/
/// Maxim 1-Wire CRC, which uses the same polynomial bit-reflected (check
/// value 0xA1). The wire format and golden bytes depend on this variant.
[[nodiscard]] std::uint8_t crc8(std::span<const std::uint8_t> data);

/// CRC-32 (IEEE 802.3, reflected poly 0xEDB88320, init/xorout
/// 0xFFFFFFFF): crc32("123456789") == 0xCBF43926. Integrity check of
/// fleet checkpoint files and DSTL containers.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data);

}  // namespace distscroll::util
