// Unit tests for telemetry framing, the lossy RF link, the ARQ layer
// and the host-side logger — the end-to-end argument in miniature:
// corruption on the wire, CRC rejection at the host, retransmission
// until delivery.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <initializer_list>
#include <span>
#include <utility>
#include <vector>

#include "hw/uart.h"
#include "sim/clock.h"
#include "sim/event_queue.h"
#include "wireless/arq.h"
#include "wireless/host_logger.h"
#include "wireless/packet.h"
#include "wireless/rf_link.h"
#include "wire_frames.h"

namespace distscroll::wireless {
namespace {

// --- framing ----------------------------------------------------------------

using test_support::decode_all;
using test_support::feed_all;
using test_support::OwnedFrame;
using test_support::wire_of;

TEST(Packet, EncodeDecodeRoundTrip) {
  const OwnedFrame frame{FrameType::ButtonEvent, 42, {1, 2, 3, 4}};
  FrameDecoder decoder;
  const auto decoded = feed_all(decoder, wire_of(frame));
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0], frame);
  EXPECT_EQ(decoder.frames_decoded(), 1u);
}

TEST(Packet, EmptyPayloadFrame) {
  const OwnedFrame frame{FrameType::Heartbeat, 0, {}};
  FrameDecoder decoder;
  const auto decoded = feed_all(decoder, wire_of(frame));
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_TRUE(decoded[0].payload.empty());
}

TEST(Packet, CorruptedByteRejectedByCrc) {
  auto wire = wire_of(OwnedFrame{FrameType::State, 0, {9, 9, 9}});
  wire[4] ^= 0x10;  // flip a payload bit
  FrameDecoder decoder;
  EXPECT_TRUE(feed_all(decoder, wire).empty());
  EXPECT_EQ(decoder.crc_errors(), 1u);
}

TEST(Packet, DecoderResynchronisesAfterGarbage) {
  FrameDecoder decoder;
  // Garbage, then a valid frame.
  const std::uint8_t garbage[] = {0x12, 0x00, 0xFF};
  EXPECT_TRUE(feed_all(decoder, garbage).empty());
  const auto decoded = feed_all(decoder, wire_of(OwnedFrame{FrameType::Debug, 7, {0xAB}}));
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].seq, 7);
}

TEST(Packet, BogusLengthCountsFramingError) {
  FrameDecoder decoder;
  const std::uint8_t bogus[] = {kSyncByte, 0xFF};  // length way beyond kMaxPayload
  feed_all(decoder, bogus);
  EXPECT_EQ(decoder.framing_errors(), 1u);
  // Still decodes a following good frame.
  EXPECT_EQ(feed_all(decoder, wire_of(OwnedFrame{FrameType::Heartbeat, 0, {1}})).size(), 1u);
}

TEST(Packet, BackToBackFrames) {
  std::vector<OwnedFrame> frames;
  for (int i = 0; i < 10; ++i) {
    frames.push_back({FrameType::Heartbeat, static_cast<std::uint8_t>(i),
                      {static_cast<std::uint8_t>(i)}});
  }
  FrameDecoder decoder;
  EXPECT_EQ(feed_all(decoder, wire_of(frames)), frames);
}

// --- decoder resync ---------------------------------------------------------

std::vector<OwnedFrame> make_stream_frames() {
  std::vector<OwnedFrame> frames;
  for (int i = 0; i < 6; ++i) {
    // Payloads deliberately contain kSyncByte to stress phantom-sync
    // rescans.
    frames.push_back({(i % 2 == 0) ? FrameType::State : FrameType::ButtonEvent,
                      static_cast<std::uint8_t>(i),
                      {static_cast<std::uint8_t>(i), kSyncByte,
                       static_cast<std::uint8_t>(0xF0 + i)}});
  }
  return frames;
}

// The headline regression: a bit-flipped LEN used to swallow the next
// frame's sync byte, so ONE corrupted byte cost TWO OR MORE frames. The
// decoder must rescan the consumed window and recover everything behind
// the corrupted frame.
TEST(Packet, CorruptedLenLosesOnlyTheFrameItHit) {
  const auto frames = make_stream_frames();
  auto wire = wire_of(frames);
  // Byte 1 of the stream is frame 0's LEN (5): flip it to 12, which
  // swallows frame 1's sync into frame 0's phantom body.
  ASSERT_EQ(wire[1], 5);
  wire[1] = 12;
  FrameDecoder decoder;
  const auto decoded = decode_all(decoder, wire);
  // Frames 1..5 all survive; only frame 0 is lost.
  ASSERT_EQ(decoded.size(), frames.size() - 1);
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    EXPECT_EQ(decoded[i], frames[i + 1]) << "frame " << i + 1 << " mangled";
  }
  EXPECT_GE(decoder.crc_errors() + decoder.framing_errors(), 1u);
  EXPECT_GE(decoder.resyncs(), 1u);
}

/// Every single-byte corruption of `clean` the resync tests replay: at
/// each position, three XOR masks and two overwrites (skipping an
/// overwrite that changes nothing).
std::vector<std::pair<std::size_t, std::vector<std::uint8_t>>> single_byte_mutations(
    const std::vector<std::uint8_t>& clean) {
  std::vector<std::pair<std::size_t, std::vector<std::uint8_t>>> corpus;
  for (std::size_t pos = 0; pos < clean.size(); ++pos) {
    const std::uint8_t masks[] = {0x01, 0x80, 0xFF};
    const std::uint8_t overwrites[] = {0x00, kSyncByte};
    std::vector<std::uint8_t> values;
    for (const std::uint8_t mask : masks) {
      values.push_back(static_cast<std::uint8_t>(clean[pos] ^ mask));
    }
    for (const std::uint8_t value : overwrites) {
      if (value != clean[pos]) values.push_back(value);
    }
    for (const std::uint8_t value : values) {
      auto wire = clean;
      wire[pos] = value;
      corpus.emplace_back(pos, std::move(wire));
    }
  }
  return corpus;
}

// The resync property: for a valid multi-frame stream,
// corrupting ANY single byte (several corruption patterns) loses at most
// one frame, and the decoder never emits a frame that was not sent.
TEST(Packet, AnySingleByteCorruptionLosesAtMostOneFrame) {
  const auto frames = make_stream_frames();
  for (const auto& [pos, wire] : single_byte_mutations(wire_of(frames))) {
    const int mutated = wire[pos];
    FrameDecoder decoder;
    const auto decoded = decode_all(decoder, wire);
    // Count originals recovered (each at most once, in order).
    std::size_t matched = 0;
    std::size_t garbage = 0;
    std::size_t next = 0;
    for (const auto& frame : decoded) {
      const auto it = std::find(frames.begin() + static_cast<long>(next), frames.end(), frame);
      if (it != frames.end()) {
        ++matched;
        next = static_cast<std::size_t>(it - frames.begin()) + 1;
      } else {
        ++garbage;
      }
    }
    EXPECT_GE(matched, frames.size() - 1)
        << "byte " << pos << " -> " << mutated << " lost more than one frame";
    EXPECT_EQ(garbage, 0u) << "byte " << pos << " -> " << mutated
                           << " produced a frame that was never sent";
    // Counter reconciliation: every frame that went missing left a
    // trace in the error counters (or the flush truncation did).
    if (matched < frames.size()) {
      EXPECT_GE(decoder.crc_errors() + decoder.framing_errors(), 1u)
          << "byte " << pos << ": a frame vanished without any error counted";
    }
    EXPECT_EQ(decoder.frames_decoded(), decoded.size());
  }
}

// The same corpus, held to the counters rather than the frames: which
// check rejects a window, and how often a rescan starts, are part of
// what the decoder reports. frames, crc and framing were recorded from the
// replay-queue state-machine decoder at commit 5cd5f53; the window
// decoder must match them exactly. resyncs counts every rescan, the
// bad-LEN ones included (that decoder left those out and read 196).
TEST(Packet, SingleByteCorruptionCounterTotalsArePinned) {
  const auto corpus = single_byte_mutations(wire_of(make_stream_frames()));
  ASSERT_EQ(corpus.size(), 226u);
  std::uint64_t frames = 0;
  std::uint64_t crc = 0;
  std::uint64_t framing = 0;
  std::uint64_t resyncs = 0;
  for (const auto& [pos, wire] : corpus) {
    FrameDecoder decoder;
    decode_all(decoder, wire);
    frames += decoder.frames_decoded();
    crc += decoder.crc_errors();
    framing += decoder.framing_errors();
    resyncs += decoder.resyncs();
  }
  EXPECT_EQ(frames, 1130u);
  EXPECT_EQ(crc, 157u);
  EXPECT_EQ(framing, 283u);
  EXPECT_EQ(resyncs, 440u);
}

TEST(Packet, UnknownFrameTypeCountsFramingErrorAndIsNotDelivered) {
  auto wire = wire_of(OwnedFrame{FrameType::State, 0, {1, 2, 3}});
  wire[2] = 0x7E;  // not a known type; CRC now fails too, but the type
                   // check fires first and counts a framing error
  FrameDecoder decoder;
  EXPECT_TRUE(feed_all(decoder, wire).empty());
  EXPECT_EQ(decoder.framing_errors(), 1u);
  EXPECT_EQ(decoder.crc_errors(), 0u);
  // A valid frame still decodes afterwards.
  const OwnedFrame good{FrameType::Heartbeat, 0, {9}};
  const auto decoded = feed_all(decoder, wire_of(good));
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0], good);
}

TEST(Packet, FlushRecoversFrameWedgedBehindTruncatedPartial) {
  const OwnedFrame frame{FrameType::Debug, 3, {0x42}};
  FrameDecoder decoder;
  // A sync + huge-but-valid LEN that will never complete, swallowing the
  // real frame that follows.
  const std::uint8_t partial[] = {kSyncByte, static_cast<std::uint8_t>(2 + kMaxPayload),
                                  static_cast<std::uint8_t>(FrameType::Debug)};
  EXPECT_TRUE(feed_all(decoder, partial).empty());
  EXPECT_TRUE(feed_all(decoder, wire_of(frame)).empty());  // wedged in the phantom body
  const auto decoded = decode_all(decoder, {});
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0], frame);
  EXPECT_GE(decoder.framing_errors(), 1u);  // the truncated partial
}

TEST(StateReport, PackUnpackRoundTrip) {
  StateReport report;
  report.adc_counts = 789;
  report.menu_depth = 2;
  report.cursor_index = 5;
  report.level_size = 9;
  report.buttons = 0b101;
  std::array<std::uint8_t, StateReport::kPackedSize> packed{};
  report.pack_into(packed);
  const auto unpacked = StateReport::unpack(packed);
  ASSERT_TRUE(unpacked.has_value());
  EXPECT_EQ(unpacked->adc_counts, 789);
  EXPECT_EQ(unpacked->menu_depth, 2);
  EXPECT_EQ(unpacked->cursor_index, 5);
  EXPECT_EQ(unpacked->level_size, 9);
  EXPECT_EQ(unpacked->buttons, 0b101);
}

TEST(StateReport, UnpackRejectsWrongSize) {
  std::vector<std::uint8_t> wrong(5);
  EXPECT_FALSE(StateReport::unpack(wrong).has_value());
}

// --- RF link + host logger ---------------------------------------------------------

struct LinkFixture : ::testing::Test {
  sim::EventQueue queue;
  hw::Uart uart;

  void send_frames(RfLink& link, HostLogger& logger, int count) {
    send_frames(link, [&logger](std::uint8_t byte) { logger.on_byte(byte); }, count);
  }

  /// State frames seq 0..count-1 reporting adc_counts 100+seq.
  void send_frames(RfLink& link, RfLink::HostSink host_sink, int count) {
    link.set_host_sink(std::move(host_sink));
    link.start();
    for (int i = 0; i < count; ++i) {
      StateReport report;
      report.adc_counts = static_cast<std::uint16_t>(100 + i);
      std::array<std::uint8_t, StateReport::kPackedSize> payload{};
      report.pack_into(payload);
      std::array<std::uint8_t, kMaxEncodedFrame> wire{};
      const std::size_t len =
          encode_into(FrameType::State, static_cast<std::uint8_t>(i), payload, wire);
      // Pace transmissions so the 64-byte UART FIFO never overflows.
      for (std::size_t b = 0; b < len; ++b) uart.transmit(wire[b]);
      queue.run_until(util::Seconds{queue.now().value + 0.01});
    }
    queue.run_until(util::Seconds{queue.now().value + 0.5});
  }
};

TEST_F(LinkFixture, CleanLinkDeliversEverything) {
  RfLink::Config config;
  config.byte_loss_probability = 0.0;
  config.bit_flip_probability = 0.0;
  RfLink link(config, uart, queue, sim::Rng(1));
  HostLogger logger;
  send_frames(link, logger, 20);
  EXPECT_EQ(logger.frames_received(), 20u);
  EXPECT_EQ(logger.crc_errors(), 0u);
  EXPECT_EQ(logger.sequence_gaps(), 0u);
  ASSERT_TRUE(logger.last_state().has_value());
  EXPECT_EQ(logger.last_state()->adc_counts, 119);
}

TEST_F(LinkFixture, LatencyDelaysDelivery) {
  RfLink::Config config;
  config.byte_loss_probability = 0.0;
  config.bit_flip_probability = 0.0;
  RfLink link(config, uart, queue, sim::Rng(2));
  HostLogger logger;
  link.set_host_sink([&](std::uint8_t byte) { logger.on_byte(byte); });
  link.start();
  const auto wire = wire_of(OwnedFrame{});
  for (std::uint8_t byte : wire) uart.transmit(byte);
  // The last byte leaves the UART after one byte time per byte, then
  // flies the transceiver's 1.5 ms plus up to 0.3 ms of jitter.
  const double last_departure = static_cast<double>(wire.size()) * uart.byte_time().value;
  queue.run_until(util::Seconds{last_departure + 1.5e-3 - 10e-6});
  EXPECT_EQ(logger.frames_received(), 0u);  // still in flight
  queue.run_until(util::Seconds{last_departure + 1.8e-3 + 10e-6});
  EXPECT_EQ(logger.frames_received(), 1u);
}

TEST_F(LinkFixture, LossyLinkDropsFramesButNeverCorruptsThem) {
  RfLink::Config config;
  config.byte_loss_probability = 0.02;
  config.bit_flip_probability = 0.01;
  RfLink link(config, uart, queue, sim::Rng(3));
  HostLogger logger;
  // A second decoder on the same bytes checks each frame as it lands:
  // every delivered state frame carries a valid payload.
  FrameDecoder checker;
  std::uint64_t states_checked = 0;
  const auto check = [&states_checked](const FrameView& frame) {
    if (frame.type != FrameType::State) return;
    ++states_checked;
    const auto report = StateReport::unpack(frame.payload);
    ASSERT_TRUE(report.has_value());
    EXPECT_GE(report->adc_counts, 100);
    EXPECT_LT(report->adc_counts, 300);
  };
  send_frames(
      link,
      [&](std::uint8_t byte) {
        logger.on_byte(byte);
        checker.feed(byte, check);
      },
      200);
  EXPECT_LT(logger.frames_received(), 200u);  // some lost
  EXPECT_GT(logger.frames_received(), 100u);  // most survive
  EXPECT_EQ(states_checked, logger.frames_received());
  // Gaps observed match the loss.
  EXPECT_GT(logger.sequence_gaps() + logger.crc_errors(), 0u);
}

TEST_F(LinkFixture, LinkCountersConsistent) {
  RfLink::Config config;
  config.byte_loss_probability = 0.05;
  RfLink link(config, uart, queue, sim::Rng(4));
  HostLogger logger;
  send_frames(link, logger, 50);
  EXPECT_GT(link.bytes_sent(), 0u);
  EXPECT_GT(link.bytes_lost(), 0u);
  EXPECT_LT(link.bytes_lost(), link.bytes_sent());
}

TEST_F(LinkFixture, LateFrameFillsTheGapItLeft) {
  // On the ARQ path a retransmitted frame arrives after its successors.
  // The logger used to measure every frame against "last seq + 1", so
  // 0, 1, 3, 2, 4 read as 1 + 254 + 1 = 256 missing frames.
  const auto feed = [](HostLogger& logger, std::initializer_list<int> seqs) {
    for (const int seq : seqs) {
      logger.on_frame(FrameView{FrameType::Heartbeat, static_cast<std::uint8_t>(seq), {}});
    }
  };
  HostLogger reordered;
  feed(reordered, {0, 1, 3, 2, 4});
  EXPECT_EQ(reordered.frames_received(), 5u);
  EXPECT_EQ(reordered.sequence_gaps(), 0u);
  // A genuine hole stays counted.
  HostLogger lossy;
  feed(lossy, {0, 1, 4});
  EXPECT_EQ(lossy.sequence_gaps(), 2u);
}

TEST(ParseWireFrame, AcceptsExactlyWhatEncodeProduces) {
  StateReport report;
  report.adc_counts = 777;
  report.menu_depth = 2;
  report.cursor_index = 5;
  report.level_size = 9;
  report.buttons = 0b101;
  std::array<std::uint8_t, StateReport::kPackedSize> payload{};
  report.pack_into(payload);
  const std::vector<std::uint8_t> wire =
      wire_of(OwnedFrame{FrameType::State, 42, {payload.begin(), payload.end()}});

  const auto view = parse_wire_frame(wire);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->type, FrameType::State);
  EXPECT_EQ(view->seq, 42);
  const auto round = StateReport::unpack(view->payload);
  ASSERT_TRUE(round.has_value());
  EXPECT_EQ(*round, report);
}

TEST(ParseWireFrame, RejectsEverySingleBitFlip) {
  const std::vector<std::uint8_t> wire = wire_of(OwnedFrame{FrameType::SelectionEvent, 7, {1, 2, 3, 4}});
  for (std::size_t bit = 0; bit < wire.size() * 8; ++bit) {
    std::vector<std::uint8_t> mutated = wire;
    mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    const auto view = parse_wire_frame(mutated);
    // CRC-8 detects all single-bit errors in LEN..PAYLOAD..CRC; sync
    // corruption fails the sync check. No flip may survive.
    EXPECT_FALSE(view.has_value()) << "bit " << bit << " slipped through";
  }
}

TEST(ParseWireFrame, RejectsTruncationPaddingAndGarbage) {
  const std::vector<std::uint8_t> wire = wire_of(OwnedFrame{FrameType::Heartbeat, 0, {9, 9}});
  for (std::size_t n = 0; n < wire.size(); ++n) {
    EXPECT_FALSE(parse_wire_frame({wire.data(), n}).has_value()) << "prefix " << n;
  }
  std::vector<std::uint8_t> padded = wire;
  padded.push_back(0x00);
  EXPECT_FALSE(parse_wire_frame(padded).has_value());
  EXPECT_FALSE(parse_wire_frame({}).has_value());
  const std::vector<std::uint8_t> junk(kMaxEncodedFrame + 1, 0xAA);
  EXPECT_FALSE(parse_wire_frame(junk).has_value());
}

// --- ARQ --------------------------------------------------------------------

// Deterministic harness: the "ether" is a scriptable delay line. The
// forward predicate decides per transmission whether the frame reaches
// the receiver; the ack predicate likewise for the reverse channel.
struct ArqFixture : ::testing::Test {
  sim::EventQueue queue;
  ArqConfig config;
  std::function<bool(int)> forward_ok = [](int) { return true; };  // arg: transmission #
  std::function<bool(int)> ack_ok = [](int) { return true; };
  int forward_count = 0;
  int ack_count = 0;
  std::vector<double> forward_times;
  // The sinks wire() binds: a WireSink is a view, so they live here.
  std::function<bool(std::span<const std::uint8_t>)> forward_sink;
  std::function<bool(std::span<const std::uint8_t>)> ack_sink;

  void wire(EventArqSender& arq, ArqReceiver& receiver, double latency = 1e-3) {
    forward_sink = [&, latency](std::span<const std::uint8_t> wire_bytes) {
      forward_times.push_back(queue.now().value);
      const int n = forward_count++;
      if (!forward_ok(n)) return true;  // lost on the air, but transmitted
      std::vector<std::uint8_t> copy(wire_bytes.begin(), wire_bytes.end());
      queue.schedule_after(util::Seconds{latency}, [&receiver, copy] {
        for (std::uint8_t b : copy) receiver.on_byte(b);
      });
      return true;
    };
    arq.set_wire_sink(forward_sink);
    ack_sink = [&, latency](std::span<const std::uint8_t> wire_bytes) {
      const int n = ack_count++;
      if (!ack_ok(n)) return true;
      std::vector<std::uint8_t> copy(wire_bytes.begin(), wire_bytes.end());
      queue.schedule_after(util::Seconds{latency}, [&arq, copy] {
        for (std::uint8_t b : copy) arq.on_ack_byte(b);
      });
      return true;
    };
    receiver.set_ack_sink(ack_sink);
  }
};

TEST_F(ArqFixture, CleanChannelDeliversEverythingOnceWithoutRetransmits) {
  EventArqSender arq(config, queue);
  ArqReceiver receiver;
  std::vector<std::uint8_t> delivered;
  receiver.set_frame_sink([&](const FrameView& f) { delivered.push_back(f.seq); });
  wire(arq, receiver);
  for (int i = 0; i < 20; ++i) {
    const std::uint8_t payload[] = {static_cast<std::uint8_t>(i)};
    EXPECT_TRUE(arq.send(FrameType::State, payload));
  }
  queue.run_until(util::Seconds{2.0});
  ASSERT_EQ(delivered.size(), 20u);
  for (std::size_t i = 0; i < delivered.size(); ++i) EXPECT_EQ(delivered[i], i);
  EXPECT_EQ(arq.sender().retransmissions(), 0u);
  EXPECT_EQ(arq.sender().acks_received(), 20u);
  EXPECT_EQ(arq.sender().queued(), 0u);
  EXPECT_EQ(receiver.duplicates_discarded(), 0u);
}

TEST_F(ArqFixture, LostFrameIsRetransmittedAfterTimeout) {
  forward_ok = [](int n) { return n != 0; };  // first transmission dies
  EventArqSender arq(config, queue);
  ArqReceiver receiver;
  std::vector<std::uint8_t> delivered;
  receiver.set_frame_sink([&](const FrameView& f) { delivered.push_back(f.seq); });
  wire(arq, receiver);
  const std::uint8_t payload[] = {42};
  arq.send(FrameType::State, payload);
  queue.run_until(util::Seconds{1.0});
  // The retransmit's delivery event takes the calendar slot the spent
  // wake event just freed; re-arming the wake must leave it alone.
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(arq.sender().retransmissions(), 1u);
  EXPECT_EQ(arq.sender().acks_received(), 1u);
  EXPECT_EQ(arq.sender().queued(), 0u);
}

TEST_F(ArqFixture, LostAckTriggersRetransmitAndDuplicateDiscard) {
  ack_ok = [](int n) { return n != 0; };  // first ack dies
  EventArqSender arq(config, queue);
  ArqReceiver receiver;
  std::vector<std::uint8_t> delivered;
  receiver.set_frame_sink([&](const FrameView& f) { delivered.push_back(f.seq); });
  wire(arq, receiver);
  const std::uint8_t payload[] = {7};
  arq.send(FrameType::State, payload);
  queue.run_until(util::Seconds{1.0});
  // Delivered exactly once despite the retransmission.
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_GE(arq.sender().retransmissions(), 1u);
  EXPECT_GE(receiver.duplicates_discarded(), 1u);
  EXPECT_EQ(arq.sender().queued(), 0u);  // the re-ack finally landed
}

TEST_F(ArqFixture, RetryExhaustionDropsTheFrameAndFreesTheWindow) {
  forward_ok = [](int) { return false; };  // black hole
  config.max_attempts = 3;
  config.initial_timeout = util::Seconds{0.010};
  EventArqSender arq(config, queue);
  ArqReceiver receiver;
  wire(arq, receiver);
  const std::uint8_t payload[] = {1};
  arq.send(FrameType::State, payload);
  queue.run_until(util::Seconds{5.0});
  EXPECT_EQ(arq.sender().transmissions(), 3u);
  EXPECT_EQ(arq.sender().drops_retry_exhausted(), 1u);
  EXPECT_EQ(arq.sender().queued(), 0u);
  EXPECT_EQ(queue.pending(), 0u);  // no deadline left to wake for
}

TEST_F(ArqFixture, BackoffGrowsExponentiallyAndCaps) {
  forward_ok = [](int) { return false; };
  config.max_attempts = 6;
  config.initial_timeout = util::Seconds{0.010};
  config.backoff_factor = 2.0;
  config.max_timeout = util::Seconds{0.050};
  EventArqSender arq(config, queue);
  ArqReceiver receiver;
  wire(arq, receiver);
  arq.send(FrameType::Heartbeat, {});
  queue.run_until(util::Seconds{5.0});
  ASSERT_EQ(forward_times.size(), 6u);
  // Gaps: 10, 20, 40, 50(cap), 50(cap) ms.
  const double expected[] = {0.010, 0.020, 0.040, 0.050, 0.050};
  for (std::size_t i = 0; i + 1 < forward_times.size(); ++i) {
    EXPECT_NEAR(forward_times[i + 1] - forward_times[i], expected[i], 1e-6)
        << "gap " << i << " off";
  }
}

TEST_F(ArqFixture, BoundedQueueShedsOverloadAndWindowLimitsInFlight) {
  forward_ok = [](int) { return false; };  // nothing acked, nothing delivered
  config.queue_capacity = 12;  // more than the 8-frame window
  config.initial_timeout = util::Seconds{10.0};  // no retransmits during test
  EventArqSender arq(config, queue);
  ArqReceiver receiver;
  wire(arq, receiver);
  int accepted = 0;
  for (int i = 0; i < 20; ++i) {
    const std::uint8_t payload[] = {static_cast<std::uint8_t>(i)};
    if (arq.send(FrameType::State, payload)) ++accepted;
  }
  EXPECT_EQ(accepted, 12);
  EXPECT_EQ(arq.sender().drops_queue_full(), 8u);
  EXPECT_EQ(arq.sender().queued(), 12u);
  EXPECT_EQ(arq.sender().transmissions(), 8u);  // only the window transmitted
}

TEST_F(ArqFixture, TransportBackpressureDefersUntilSpace) {
  // A wire sink that refuses until notify_tx_space(), like a full UART
  // TX FIFO.
  bool fifo_full = true;
  EventArqSender arq(config, queue);
  ArqReceiver receiver;
  std::vector<std::uint8_t> delivered;
  receiver.set_frame_sink([&](const FrameView& f) { delivered.push_back(f.seq); });
  const auto to_receiver = [&](std::span<const std::uint8_t> wire_bytes) {
    if (fifo_full) return false;
    std::vector<std::uint8_t> copy(wire_bytes.begin(), wire_bytes.end());
    queue.schedule_after(util::Seconds{1e-3}, [&receiver, copy] {
      for (std::uint8_t b : copy) receiver.on_byte(b);
    });
    return true;
  };
  arq.set_wire_sink(to_receiver);
  const auto to_sender = [&](std::span<const std::uint8_t> wire_bytes) {
    std::vector<std::uint8_t> copy(wire_bytes.begin(), wire_bytes.end());
    queue.schedule_after(util::Seconds{1e-3}, [&arq, copy] {
      for (std::uint8_t b : copy) arq.on_ack_byte(b);
    });
    return true;
  };
  receiver.set_ack_sink(to_sender);
  const std::uint8_t payload[] = {5};
  arq.send(FrameType::State, payload);
  queue.run_until(util::Seconds{0.005});
  EXPECT_EQ(arq.sender().transmissions(), 0u);  // blocked on backpressure
  fifo_full = false;
  arq.notify_tx_space();
  queue.run_until(util::Seconds{0.100});
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(arq.sender().transmissions(), 1u);
}

TEST_F(ArqFixture, OversizedPayloadIsRejectedWithoutTakingASeq) {
  EventArqSender arq(config, queue);
  std::vector<OwnedFrame> delivered;
  ArqReceiver receiver;
  receiver.set_frame_sink([&](const FrameView& f) { delivered.push_back(test_support::own(f)); });
  wire(arq, receiver);
  const std::vector<std::uint8_t> oversized(kMaxPayload + 1, 0x55);
  EXPECT_FALSE(arq.send(FrameType::Debug, oversized));
  EXPECT_EQ(arq.sender().frames_accepted(), 0u);
  EXPECT_EQ(arq.sender().drops_queue_full(), 0u);  // not a capacity drop
  const std::vector<std::uint8_t> largest(kMaxPayload, 0x55);
  EXPECT_TRUE(arq.send(FrameType::Debug, largest));
  queue.run_until(util::Seconds{1.0});
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].seq, 0);  // the rejected send consumed no seq
  EXPECT_EQ(delivered[0].payload, largest);
}

// The one wake event follows the sender's earliest deadline: forward to
// a fresh frame's short timeout, back to a backed-off frame's when the
// fresh one is acked, and off the calendar once nothing is armed.
TEST_F(ArqFixture, WakeEventFollowsTheEarliestDeadline) {
  EventArqSender arq(config, queue);
  std::vector<std::pair<double, std::uint8_t>> sent;  // (time, seq); all lost
  const auto record_sends = [&](std::span<const std::uint8_t> wire_bytes) {
    sent.emplace_back(queue.now().value, parse_wire_frame(wire_bytes)->seq);
    return true;
  };
  arq.set_wire_sink(record_sends);
  const auto ack = [&](std::uint8_t seq) {
    for (std::uint8_t b : wire_of(OwnedFrame{FrameType::Ack, seq, {}})) arq.on_ack_byte(b);
  };
  const std::uint8_t payload[] = {0};
  ASSERT_TRUE(arq.send(FrameType::State, payload));
  // Seq 0 goes out at 0 and again at 30, 90 and 210 ms, where it backs
  // off to a 240 ms timeout.
  queue.run_until(util::Seconds{0.25});
  ASSERT_EQ(sent.size(), 4u);
  const double backed_off = sent.back().first + 0.240;
  EXPECT_DOUBLE_EQ(arq.sender().next_deadline().time_s, backed_off);
  ASSERT_TRUE(arq.send(FrameType::State, payload));  // seq 1, 30 ms timeout
  queue.run_until(util::Seconds{0.30});
  ASSERT_EQ(sent.size(), 6u);
  EXPECT_EQ(sent[5], (std::pair{0.25 + 0.030, std::uint8_t{1}}));
  ack(1);
  ack(1);  // a re-ack of a frame no longer queued changes nothing
  EXPECT_EQ(arq.sender().acks_received(), 1u);
  EXPECT_EQ(queue.pending(), 1u);
  queue.run_until(util::Seconds{0.46});
  ASSERT_EQ(sent.size(), 7u);
  EXPECT_EQ(sent[6], (std::pair{backed_off, std::uint8_t{0}}));
  ack(0);
  EXPECT_EQ(arq.sender().queued(), 0u);
  EXPECT_EQ(queue.pending(), 0u);
  // Nothing left to dispatch: no stale wake fires and nothing resends.
  EXPECT_EQ(queue.run_until(util::Seconds{5.0}), 0u);
  EXPECT_EQ(sent.size(), 7u);
}

// --- ARQ deadlines: the sender's owner dispatches them ----------------------

TEST(ArqDeadlines, SameInstantDeadlinesExpireInArmOrder) {
  ArqConfig config;
  config.max_attempts = 2;
  sim::SimClock clock;
  ArqSender sender(config, clock);
  std::vector<std::uint8_t> seqs;
  const auto record_seqs = [&seqs](std::span<const std::uint8_t> wire_bytes) {
    seqs.push_back(parse_wire_frame(wire_bytes)->seq);
    return true;
  };
  sender.set_wire_sink(record_seqs);
  const std::uint8_t payload[] = {7};
  ASSERT_TRUE(sender.send(FrameType::State, payload));
  ASSERT_TRUE(sender.send(FrameType::State, payload));
  const sim::Deadline first = sender.next_deadline();
  sender.expire(first.order);  // seq 0 retransmits at once and re-arms
  const sim::Deadline second = sender.next_deadline();
  EXPECT_EQ(second.time_s, first.time_s);
  EXPECT_LT(first.order, second.order);
  sender.expire(second.order);
  EXPECT_EQ(seqs, (std::vector<std::uint8_t>{0, 1, 0, 1}));
}

TEST(ArqDeadlines, AckRemovesItsFramesDeadline) {
  ArqConfig config;
  sim::SimClock clock;
  ArqSender sender(config, clock);
  const auto accept_all = [](std::span<const std::uint8_t>) { return true; };
  sender.set_wire_sink(accept_all);
  EXPECT_EQ(sender.next_deadline(), sim::Deadline{});  // nothing armed: never
  const std::uint8_t payload[] = {1};
  ASSERT_TRUE(sender.send(FrameType::State, payload));
  clock.advance_to(util::Seconds{0.005});
  ASSERT_TRUE(sender.send(FrameType::State, payload));
  EXPECT_DOUBLE_EQ(sender.next_deadline().time_s, config.initial_timeout.value);
  sender.on_ack(0);
  EXPECT_DOUBLE_EQ(sender.next_deadline().time_s, 0.005 + config.initial_timeout.value);
  sender.on_ack(1);
  EXPECT_EQ(sender.next_deadline(), sim::Deadline{});
}

TEST(ArqDeadlines, ReArmedDeadlineUsesBackedOffTimeout) {
  ArqConfig config;
  config.initial_timeout = util::Seconds{0.010};
  config.backoff_factor = 2.0;
  config.max_timeout = util::Seconds{0.030};
  sim::SimClock clock;
  ArqSender sender(config, clock);
  const auto accept_all = [](std::span<const std::uint8_t>) { return true; };
  sender.set_wire_sink(accept_all);
  const std::uint8_t payload[] = {1};
  ASSERT_TRUE(sender.send(FrameType::State, payload));
  // Each expiry retransmits at its own instant and re-arms with the
  // timeout doubled, capped at max_timeout: 10, 20, 30, 30 ms.
  double armed_at = 0.0;
  for (const double timeout : {0.010, 0.020, 0.030, 0.030}) {
    const sim::Deadline next = sender.next_deadline();
    EXPECT_DOUBLE_EQ(next.time_s, armed_at + timeout);
    armed_at = next.time_s;
    clock.advance_to(util::Seconds{armed_at});
    sender.expire(next.order);
  }
  EXPECT_EQ(sender.retransmissions(), 4u);
}

// Full stack: ARQ over the real UART + lossy RfLink in both directions.
TEST_F(LinkFixture, ArqOverLossyLinkDeliversEverythingExactlyOnce) {
  hw::Uart host_uart;
  RfLink::Config lossy;
  lossy.byte_loss_probability = 0.02;
  lossy.bit_flip_probability = 0.005;
  RfLink forward(lossy, uart, queue, sim::Rng(21));
  RfLink reverse(lossy, host_uart, queue, sim::Rng(22));

  EventArqSender arq(ArqConfig{}, queue);
  ArqReceiver receiver;
  const auto to_device_uart = [&](std::span<const std::uint8_t> wire_bytes) {
    if (uart.tx_free() < wire_bytes.size()) return false;
    for (std::uint8_t b : wire_bytes) uart.transmit(b);
    return true;
  };
  arq.set_wire_sink(to_device_uart);
  uart.set_tx_space_callback([&] { arq.notify_tx_space(); });
  forward.set_host_sink([&](std::uint8_t b) { receiver.on_byte(b); });
  const auto to_host_uart = [&](std::span<const std::uint8_t> wire_bytes) {
    if (host_uart.tx_free() < wire_bytes.size()) return false;
    for (std::uint8_t b : wire_bytes) host_uart.transmit(b);
    return true;
  };
  receiver.set_ack_sink(to_host_uart);
  reverse.set_host_sink([&](std::uint8_t b) { arq.on_ack_byte(b); });
  std::vector<std::uint8_t> delivered;
  receiver.set_frame_sink([&](const FrameView& f) {
    ASSERT_EQ(f.payload.size(), 1u);
    delivered.push_back(f.payload[0]);
  });
  forward.start();
  reverse.start();

  constexpr int kFrames = 120;
  for (int i = 0; i < kFrames; ++i) {
    const std::uint8_t payload[] = {static_cast<std::uint8_t>(i)};
    arq.send(FrameType::State, payload);
    queue.run_until(util::Seconds{queue.now().value + 0.02});
  }
  queue.run_until(util::Seconds{queue.now().value + 3.0});

  // Exactly-once delivery of every frame, in spite of the loss.
  ASSERT_EQ(delivered.size(), static_cast<std::size_t>(kFrames));
  std::vector<std::uint8_t> sorted = delivered;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < kFrames; ++i) EXPECT_EQ(sorted[static_cast<std::size_t>(i)], i);
  EXPECT_GT(arq.sender().retransmissions(), 0u);  // the link really was lossy
  EXPECT_EQ(arq.sender().queued(), 0u);
}

}  // namespace
}  // namespace distscroll::wireless
