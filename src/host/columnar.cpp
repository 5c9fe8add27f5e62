#include "host/columnar.h"

#include <array>
#include <fstream>
#include <iterator>

#include "util/checkpoint_io.h"
#include "util/crc.h"

namespace distscroll::host {
namespace {

constexpr std::uint32_t kDstlMagic = 0x4C545344u;  // "DSTL" little-endian
constexpr std::size_t kColumnCount = 8;
// Fixed-size header (magic + version + session + count) and trailer (crc32).
constexpr std::size_t kHeaderBytes = 4 + 2 + 2 + 4;
constexpr std::size_t kTrailerBytes = 4;

void put_column(util::ByteWriter& writer, std::vector<std::uint8_t>& out,
                const std::vector<std::uint8_t>& column) {
  writer.u32(static_cast<std::uint32_t>(column.size()));
  out.insert(out.end(), column.begin(), column.end());
}

[[nodiscard]] std::uint32_t read_u32_le(std::span<const std::uint8_t> bytes, std::size_t at) {
  std::uint32_t value = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    value |= static_cast<std::uint32_t>(bytes[at + i]) << (8 * i);
  }
  return value;
}

/// Slice the next length-prefixed column out of `bytes`. The length is
/// validated against the remaining payload before the span is formed.
[[nodiscard]] bool get_column(std::span<const std::uint8_t> bytes, std::size_t& cursor,
                              std::size_t payload_end, std::span<const std::uint8_t>& column) {
  if (payload_end - cursor < 4) return false;
  const std::uint32_t len = read_u32_le(bytes, cursor);
  cursor += 4;
  if (payload_end - cursor < len) return false;
  column = bytes.subspan(cursor, len);
  cursor += len;
  return true;
}

}  // namespace

bool get_varint(std::span<const std::uint8_t> bytes, std::size_t& cursor,
                std::uint64_t& value) {
  std::uint64_t result = 0;
  for (std::size_t i = 0; i < 10; ++i) {
    if (cursor >= bytes.size()) return false;
    const std::uint8_t byte = bytes[cursor++];
    result |= static_cast<std::uint64_t>(byte & 0x7Fu) << (7 * i);
    if ((byte & 0x80u) == 0) {
      value = result;
      return true;
    }
  }
  return false;  // > 10 bytes cannot be a valid u64 varint
}

void ColumnarWriter::reserve(std::size_t records) {
  device_ids_.reserve(2 * records);
  times_.reserve(3 * records);
  seqs_.reserve(records);
  adcs_.reserve(2 * records);
  depths_.reserve(records);
  cursors_.reserve(records);
  levels_.reserve(records);
  buttons_.reserve(records);
}

void ColumnarWriter::append(const CompactRecord& record) {
  put_varint(device_ids_, record.device_id);
  if (count_ == 0) {
    put_varint(times_, record.t_us);
  } else {
    // Delta mod 2^64 in unsigned arithmetic (signed subtraction would
    // overflow on wild timestamps); the bit pattern zigzags the same.
    put_varint(times_, zigzag(static_cast<std::int64_t>(record.t_us - prev_t_us_)));
  }
  prev_t_us_ = record.t_us;
  seqs_.push_back(record.seq);
  const auto adc = static_cast<std::int64_t>(record.state.adc_counts);
  put_varint(adcs_, zigzag(adc - prev_adc_));
  prev_adc_ = adc;
  depths_.push_back(record.state.menu_depth);
  cursors_.push_back(record.state.cursor_index);
  levels_.push_back(record.state.level_size);
  buttons_.push_back(record.state.buttons);
  ++count_;
}

std::vector<std::uint8_t> ColumnarWriter::finish() const {
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes + kColumnCount * 4 + device_ids_.size() + times_.size() +
              seqs_.size() + adcs_.size() + depths_.size() + cursors_.size() + levels_.size() +
              buttons_.size() + kTrailerBytes);
  util::ByteWriter writer(out);
  writer.u32(kDstlMagic);
  writer.u32(static_cast<std::uint32_t>(kDstlFormatVersion) |
             (static_cast<std::uint32_t>(session_id_) << 16));
  writer.u32(count_);
  put_column(writer, out, device_ids_);
  put_column(writer, out, times_);
  put_column(writer, out, seqs_);
  put_column(writer, out, adcs_);
  put_column(writer, out, depths_);
  put_column(writer, out, cursors_);
  put_column(writer, out, levels_);
  put_column(writer, out, buttons_);
  writer.u32(util::crc32(out));
  return out;
}

std::vector<std::uint8_t> encode_dstl(std::span<const CompactRecord> records,
                                      std::uint16_t session_id) {
  ColumnarWriter writer(session_id);
  for (const CompactRecord& record : records) writer.append(record);
  return writer.finish();
}

std::optional<std::vector<CompactRecord>> decode_dstl(std::span<const std::uint8_t> bytes,
                                                      std::uint16_t* session_id) {
  if (bytes.size() < kHeaderBytes + kColumnCount * 4 + kTrailerBytes) return std::nullopt;
  const std::size_t payload_end = bytes.size() - kTrailerBytes;
  const std::uint32_t stored_crc = read_u32_le(bytes, payload_end);
  if (util::crc32(bytes.subspan(0, payload_end)) != stored_crc) return std::nullopt;

  if (read_u32_le(bytes, 0) != kDstlMagic) return std::nullopt;
  const std::uint32_t version_and_session = read_u32_le(bytes, 4);
  if ((version_and_session & 0xFFFFu) != kDstlFormatVersion) return std::nullopt;
  const auto session = static_cast<std::uint16_t>(version_and_session >> 16);
  const std::uint32_t count = read_u32_le(bytes, 8);
  // Cheapest possible count sanity: the seq column alone stores one raw
  // byte per record, so a count beyond the container size is a lie and
  // must be rejected before it can size an allocation.
  if (count > payload_end) return std::nullopt;

  std::size_t cursor = kHeaderBytes;
  std::array<std::span<const std::uint8_t>, kColumnCount> columns{};
  for (std::size_t i = 0; i < kColumnCount; ++i) {
    if (!get_column(bytes, cursor, payload_end, columns[i])) return std::nullopt;
  }
  if (cursor != payload_end) return std::nullopt;  // trailing garbage

  const std::span<const std::uint8_t> device_col = columns[0];
  const std::span<const std::uint8_t> time_col = columns[1];
  const std::span<const std::uint8_t> seq_col = columns[2];
  const std::span<const std::uint8_t> adc_col = columns[3];
  const std::span<const std::uint8_t> depth_col = columns[4];
  const std::span<const std::uint8_t> cursor_col = columns[5];
  const std::span<const std::uint8_t> level_col = columns[6];
  const std::span<const std::uint8_t> button_col = columns[7];
  if (seq_col.size() != count || depth_col.size() != count || cursor_col.size() != count ||
      level_col.size() != count || button_col.size() != count) {
    return std::nullopt;
  }

  std::vector<CompactRecord> records;
  records.reserve(count);
  std::size_t device_cursor = 0;
  std::size_t time_cursor = 0;
  std::size_t adc_cursor = 0;
  std::uint64_t prev_t_us = 0;
  std::int64_t prev_adc = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    CompactRecord record;
    std::uint64_t device = 0;
    if (!get_varint(device_col, device_cursor, device) || device > 0xFFFFu) {
      return std::nullopt;
    }
    record.device_id = static_cast<std::uint16_t>(device);
    std::uint64_t time_field = 0;
    if (!get_varint(time_col, time_cursor, time_field)) return std::nullopt;
    if (i == 0) {
      record.t_us = time_field;
    } else {
      record.t_us = prev_t_us + static_cast<std::uint64_t>(unzigzag(time_field));
    }
    prev_t_us = record.t_us;
    record.seq = seq_col[i];
    std::uint64_t adc_field = 0;
    if (!get_varint(adc_col, adc_cursor, adc_field)) return std::nullopt;
    // Unsigned mod-2^64 sum: a mathematically negative adc wraps to a
    // value far above 0xFFFF, so one range check rejects both
    // directions without signed overflow on hostile deltas.
    const std::uint64_t adc =
        static_cast<std::uint64_t>(prev_adc) + static_cast<std::uint64_t>(unzigzag(adc_field));
    if (adc > 0xFFFF) return std::nullopt;
    record.state.adc_counts = static_cast<std::uint16_t>(adc);
    prev_adc = static_cast<std::int64_t>(adc);
    record.state.menu_depth = depth_col[i];
    record.state.cursor_index = cursor_col[i];
    record.state.level_size = level_col[i];
    record.state.buttons = button_col[i];
    records.push_back(record);
  }
  // Varint columns must be consumed exactly: leftover bytes mean the
  // declared count disagrees with the column contents.
  if (device_cursor != device_col.size() || time_cursor != time_col.size() ||
      adc_cursor != adc_col.size()) {
    return std::nullopt;
  }
  if (session_id != nullptr) *session_id = session;
  return records;
}

bool write_dstl_file(const std::string& path, std::span<const std::uint8_t> container) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(reinterpret_cast<const char*>(container.data()),
            static_cast<std::streamsize>(container.size()));
  return out.good();
}

std::optional<std::vector<std::uint8_t>> read_dstl_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  if (in.bad()) return std::nullopt;
  return bytes;
}

void write_jsonl(std::ostream& out, std::span<const CompactRecord> records) {
  for (const CompactRecord& record : records) {
    out << "{\"t_us\":" << record.t_us << ",\"device\":" << record.device_id
        << ",\"seq\":" << static_cast<unsigned>(record.seq)
        << ",\"adc\":" << record.state.adc_counts
        << ",\"depth\":" << static_cast<unsigned>(record.state.menu_depth)
        << ",\"cursor\":" << static_cast<unsigned>(record.state.cursor_index)
        << ",\"level\":" << static_cast<unsigned>(record.state.level_size)
        << ",\"buttons\":" << static_cast<unsigned>(record.state.buttons) << "}\n";
  }
}

bool write_jsonl_file(const std::string& path, std::span<const CompactRecord> records) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  write_jsonl(out, records);
  return out.good();
}

}  // namespace distscroll::host
