#include "obs/trace_io.h"

#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace distscroll::obs {

namespace {

constexpr std::uint8_t kMagic[4] = {'D', 'S', 'T', 'R'};
constexpr std::size_t kHeaderBytes = 24;
constexpr std::size_t kEventBytes = 17;

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

}  // namespace

std::vector<std::uint8_t> serialize(const Trace& trace) {
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes + kEventBytes * trace.events.size());
  // Byte pushes, like the put_u* helpers: GCC 12 flags a range insert
  // into the freshly reserved vector as a -Wstringop-overflow.
  for (const std::uint8_t byte : kMagic) out.push_back(byte);
  put_u16(out, kTraceFormatVersion);
  put_u16(out, trace.session_id);
  put_u32(out, trace.category_mask);
  put_u32(out, static_cast<std::uint32_t>(trace.events.size()));
  put_u64(out, trace.dropped);
  for (const TraceEvent& event : trace.events) {
    put_u64(out, std::bit_cast<std::uint64_t>(event.time_s));
    out.push_back(static_cast<std::uint8_t>(event.kind));
    put_u32(out, event.a);
    put_u32(out, event.b);
  }
  return out;
}

std::optional<Trace> deserialize(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < kHeaderBytes) return std::nullopt;
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) return std::nullopt;
  if (get_u16(bytes.data() + 4) != kTraceFormatVersion) return std::nullopt;
  Trace trace;
  trace.session_id = get_u16(bytes.data() + 6);
  trace.category_mask = get_u32(bytes.data() + 8);
  const std::uint32_t count = get_u32(bytes.data() + 12);
  trace.dropped = get_u64(bytes.data() + 16);
  if (bytes.size() != kHeaderBytes + kEventBytes * static_cast<std::size_t>(count)) {
    return std::nullopt;
  }
  trace.events.reserve(count);
  const std::uint8_t* p = bytes.data() + kHeaderBytes;
  for (std::uint32_t i = 0; i < count; ++i, p += kEventBytes) {
    TraceEvent event;
    event.time_s = std::bit_cast<double>(get_u64(p));
    event.kind = static_cast<EventKind>(p[8]);
    if (category_of(event.kind) == 0) return std::nullopt;  // not a defined kind
    event.a = get_u32(p + 9);
    event.b = get_u32(p + 13);
    trace.events.push_back(event);
  }
  return trace;
}

bool write_trace(const std::string& path, const Trace& trace) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  const auto bytes = serialize(trace);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

std::optional<Trace> read_trace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  return deserialize(bytes);
}

void write_jsonl(std::ostream& out, const Trace& trace) {
  char line[160];
  for (const TraceEvent& event : trace.events) {
    std::snprintf(line, sizeof(line), "{\"t\":%.9f,\"kind\":\"%s\",\"a\":%u,\"b\":%u}\n",
                  event.time_s, kind_name(event.kind), event.a, event.b);
    out << line;
  }
}

bool write_jsonl_file(const std::string& path, const Trace& trace) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  write_jsonl(out, trace);
  return static_cast<bool>(out);
}

}  // namespace distscroll::obs
