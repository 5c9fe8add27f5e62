// Unit tests for telemetry framing, the lossy RF link, the ARQ layer
// and the host-side logger — the end-to-end argument in miniature:
// corruption on the wire, CRC rejection at the host, retransmission
// until delivery.
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <span>
#include <utility>
#include <vector>

#include "hw/uart.h"
#include "sim/clock.h"
#include "sim/event_queue.h"
#include "wireless/arq.h"
#include "wireless/host_logger.h"
#include "wireless/link_stats.h"
#include "wireless/packet.h"
#include "wireless/rf_link.h"

namespace distscroll::wireless {
namespace {

// --- framing ----------------------------------------------------------------

TEST(Packet, EncodeDecodeRoundTrip) {
  Frame frame;
  frame.type = FrameType::ButtonEvent;
  frame.seq = 42;
  frame.payload = {1, 2, 3, 4};
  FrameDecoder decoder;
  std::optional<Frame> decoded;
  for (std::uint8_t byte : encode(frame)) decoded = decoder.feed(byte);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, frame);
  EXPECT_EQ(decoder.frames_decoded(), 1u);
}

TEST(Packet, EmptyPayloadFrame) {
  Frame frame;
  frame.type = FrameType::Heartbeat;
  frame.seq = 0;
  FrameDecoder decoder;
  std::optional<Frame> decoded;
  for (std::uint8_t byte : encode(frame)) decoded = decoder.feed(byte);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->payload.empty());
}

TEST(Packet, CorruptedByteRejectedByCrc) {
  Frame frame;
  frame.type = FrameType::State;
  frame.payload = {9, 9, 9};
  auto wire = encode(frame);
  wire[4] ^= 0x10;  // flip a payload bit
  FrameDecoder decoder;
  std::optional<Frame> decoded;
  for (std::uint8_t byte : wire) decoded = decoder.feed(byte);
  EXPECT_FALSE(decoded.has_value());
  EXPECT_EQ(decoder.crc_errors(), 1u);
}

TEST(Packet, DecoderResynchronisesAfterGarbage) {
  FrameDecoder decoder;
  // Garbage, then a valid frame.
  for (std::uint8_t b : {0x12, 0x00, 0xFF}) decoder.feed(b);
  Frame frame;
  frame.type = FrameType::Debug;
  frame.seq = 7;
  frame.payload = {0xAB};
  std::optional<Frame> decoded;
  for (std::uint8_t byte : encode(frame)) decoded = decoder.feed(byte);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->seq, 7);
}

TEST(Packet, BogusLengthCountsFramingError) {
  FrameDecoder decoder;
  decoder.feed(kSyncByte);
  decoder.feed(0xFF);  // length way beyond kMaxPayload
  EXPECT_EQ(decoder.framing_errors(), 1u);
  // Still decodes a following good frame.
  Frame frame;
  frame.payload = {1};
  std::optional<Frame> decoded;
  for (std::uint8_t byte : encode(frame)) decoded = decoder.feed(byte);
  EXPECT_TRUE(decoded.has_value());
}

TEST(Packet, BackToBackFrames) {
  FrameDecoder decoder;
  int decoded = 0;
  for (int i = 0; i < 10; ++i) {
    Frame frame;
    frame.seq = static_cast<std::uint8_t>(i);
    frame.payload = {static_cast<std::uint8_t>(i)};
    for (std::uint8_t byte : encode(frame)) {
      if (decoder.feed(byte)) ++decoded;
    }
  }
  EXPECT_EQ(decoded, 10);
}

// --- decoder resync ---------------------------------------------------------

std::vector<Frame> make_stream_frames() {
  std::vector<Frame> frames;
  for (int i = 0; i < 6; ++i) {
    Frame frame;
    frame.type = (i % 2 == 0) ? FrameType::State : FrameType::ButtonEvent;
    frame.seq = static_cast<std::uint8_t>(i);
    // Payloads deliberately contain kSyncByte to stress phantom-sync
    // rescans.
    frame.payload = {static_cast<std::uint8_t>(i), kSyncByte,
                     static_cast<std::uint8_t>(0xF0 + i)};
    frames.push_back(std::move(frame));
  }
  return frames;
}

std::vector<std::uint8_t> wire_of(const std::vector<Frame>& frames) {
  std::vector<std::uint8_t> wire;
  for (const auto& frame : frames) {
    const auto bytes = encode(frame);
    wire.insert(wire.end(), bytes.begin(), bytes.end());
  }
  return wire;
}

/// Feeds a byte stream, flushes, returns everything decoded.
std::vector<Frame> decode_all(FrameDecoder& decoder, const std::vector<std::uint8_t>& wire) {
  std::vector<Frame> out;
  for (std::uint8_t byte : wire) {
    for (auto f = decoder.feed(byte); f; f = decoder.poll()) out.push_back(std::move(*f));
  }
  for (auto f = decoder.flush(); f; f = decoder.poll()) out.push_back(std::move(*f));
  return out;
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

// The property the ISSUE demands: for a valid multi-frame stream,
// corrupting ANY single byte (several corruption patterns) loses at most
// one frame, and the decoder never emits a frame that was not sent.
TEST(Packet, AnySingleByteCorruptionLosesAtMostOneFrame) {
  const auto frames = make_stream_frames();
  const auto clean_wire = wire_of(frames);
  const std::uint8_t patterns[] = {0x01, 0x80, 0xFF};  // XOR masks
  const std::uint8_t overwrites[] = {0x00, kSyncByte};
  for (std::size_t pos = 0; pos < clean_wire.size(); ++pos) {
    std::vector<std::uint8_t> mutations;
    for (std::uint8_t m : patterns) mutations.push_back(clean_wire[pos] ^ m);
    for (std::uint8_t v : overwrites) {
      if (v != clean_wire[pos]) mutations.push_back(v);
    }
    for (std::uint8_t mutated : mutations) {
      auto wire = clean_wire;
      wire[pos] = mutated;
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
          << "byte " << pos << " -> " << static_cast<int>(mutated) << " lost more than one frame";
      EXPECT_EQ(garbage, 0u) << "byte " << pos << " -> " << static_cast<int>(mutated)
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
}

TEST(Packet, UnknownFrameTypeCountsFramingErrorAndIsNotDelivered) {
  Frame frame;
  frame.type = FrameType::State;
  frame.payload = {1, 2, 3};
  auto wire = encode(frame);
  wire[2] = 0x7E;  // not a known type; CRC now fails too, but the type
                   // check fires first and counts a framing error
  FrameDecoder decoder;
  std::optional<Frame> decoded;
  for (std::uint8_t byte : wire) {
    if (auto f = decoder.feed(byte)) decoded = f;
  }
  EXPECT_FALSE(decoded.has_value());
  EXPECT_EQ(decoder.framing_errors(), 1u);
  EXPECT_EQ(decoder.crc_errors(), 0u);
  // A valid frame still decodes afterwards.
  Frame good;
  good.payload = {9};
  for (std::uint8_t byte : encode(good)) {
    if (auto f = decoder.feed(byte)) decoded = f;
  }
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, good);
}

TEST(Packet, FlushRecoversFrameWedgedBehindTruncatedPartial) {
  Frame frame;
  frame.type = FrameType::Debug;
  frame.seq = 3;
  frame.payload = {0x42};
  FrameDecoder decoder;
  // A sync + huge-but-valid LEN that will never complete, swallowing the
  // real frame that follows.
  decoder.feed(kSyncByte);
  decoder.feed(static_cast<std::uint8_t>(2 + kMaxPayload));
  decoder.feed(static_cast<std::uint8_t>(FrameType::Debug));
  std::optional<Frame> decoded;
  for (std::uint8_t byte : encode(frame)) {
    if (auto f = decoder.feed(byte)) decoded = f;
  }
  EXPECT_FALSE(decoded.has_value());  // wedged in the phantom body
  decoded = decoder.flush();
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, frame);
  EXPECT_GE(decoder.framing_errors(), 1u);  // the truncated partial
}

TEST(StateReport, PackUnpackRoundTrip) {
  StateReport report;
  report.adc_counts = 789;
  report.menu_depth = 2;
  report.cursor_index = 5;
  report.level_size = 9;
  report.buttons = 0b101;
  const auto unpacked = StateReport::unpack(report.pack());
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
    link.set_host_sink([&](std::uint8_t byte) { logger.on_byte(byte); });
    link.start();
    for (int i = 0; i < count; ++i) {
      Frame frame;
      frame.type = FrameType::State;
      frame.seq = static_cast<std::uint8_t>(i);
      StateReport report;
      report.adc_counts = static_cast<std::uint16_t>(100 + i);
      frame.payload = report.pack();
      // Pace transmissions so the 64-byte UART FIFO never overflows.
      for (std::uint8_t byte : encode(frame)) uart.transmit(byte);
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
  HostLogger logger(queue);
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
  config.latency = util::Seconds{0.050};
  RfLink link(config, uart, queue, sim::Rng(2));
  HostLogger logger(queue);
  link.set_host_sink([&](std::uint8_t byte) { logger.on_byte(byte); });
  link.start();
  Frame frame;
  for (std::uint8_t byte : encode(frame)) uart.transmit(byte);
  queue.run_until(util::Seconds{0.045});
  EXPECT_EQ(logger.frames_received(), 0u);  // still in flight
  queue.run_until(util::Seconds{0.3});
  EXPECT_EQ(logger.frames_received(), 1u);
}

TEST_F(LinkFixture, LossyLinkDropsFramesButNeverCorruptsThem) {
  RfLink::Config config;
  config.byte_loss_probability = 0.02;
  config.bit_flip_probability = 0.01;
  RfLink link(config, uart, queue, sim::Rng(3));
  HostLogger logger(queue);
  send_frames(link, logger, 200);
  EXPECT_LT(logger.frames_received(), 200u);  // some lost
  EXPECT_GT(logger.frames_received(), 100u);  // most survive
  // Every delivered state frame carries a valid payload.
  for (const auto& event : logger.events()) {
    if (event.frame.type == FrameType::State) {
      const auto report = StateReport::unpack(event.frame.payload);
      ASSERT_TRUE(report.has_value());
      EXPECT_GE(report->adc_counts, 100);
      EXPECT_LT(report->adc_counts, 300);
    }
  }
  // Gaps observed match the loss.
  EXPECT_GT(logger.sequence_gaps() + logger.crc_errors(), 0u);
}

TEST_F(LinkFixture, LinkCountersConsistent) {
  RfLink::Config config;
  config.byte_loss_probability = 0.05;
  RfLink link(config, uart, queue, sim::Rng(4));
  HostLogger logger(queue);
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
      Frame frame;
      frame.type = FrameType::Heartbeat;
      frame.seq = static_cast<std::uint8_t>(seq);
      logger.on_frame(frame);
    }
  };
  HostLogger reordered(queue);
  feed(reordered, {0, 1, 3, 2, 4});
  EXPECT_EQ(reordered.frames_received(), 5u);
  EXPECT_EQ(reordered.sequence_gaps(), 0u);
  // A genuine hole stays counted.
  HostLogger lossy(queue);
  feed(lossy, {0, 1, 4});
  EXPECT_EQ(lossy.sequence_gaps(), 2u);
}

TEST(ParseWireFrame, AcceptsExactlyWhatEncodeProduces) {
  Frame frame;
  frame.type = FrameType::State;
  frame.seq = 42;
  StateReport report;
  report.adc_counts = 777;
  report.menu_depth = 2;
  report.cursor_index = 5;
  report.level_size = 9;
  report.buttons = 0b101;
  frame.payload = report.pack();
  const std::vector<std::uint8_t> wire = encode(frame);

  const auto view = parse_wire_frame(wire);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->type, FrameType::State);
  EXPECT_EQ(view->seq, 42);
  const auto round = StateReport::unpack(view->payload);
  ASSERT_TRUE(round.has_value());
  EXPECT_EQ(*round, report);
}

TEST(ParseWireFrame, RejectsEverySingleBitFlip) {
  Frame frame;
  frame.type = FrameType::SelectionEvent;
  frame.seq = 7;
  frame.payload = {1, 2, 3, 4};
  const std::vector<std::uint8_t> wire = encode(frame);
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
  Frame frame;
  frame.payload = {9, 9};
  const std::vector<std::uint8_t> wire = encode(frame);
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

TEST_F(LinkFixture, StopHaltsPumping) {
  RfLink::Config config;
  config.byte_loss_probability = 0.0;
  config.bit_flip_probability = 0.0;
  RfLink link(config, uart, queue, sim::Rng(5));
  HostLogger logger(queue);
  link.set_host_sink([&](std::uint8_t byte) { logger.on_byte(byte); });
  link.start();
  link.stop();
  Frame frame;
  for (std::uint8_t byte : encode(frame)) uart.transmit(byte);
  queue.run_until(util::Seconds{1.0});
  EXPECT_EQ(logger.frames_received(), 0u);
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

  void wire(EventArqSender& arq, ArqReceiver& receiver, double latency = 1e-3) {
    arq.set_wire_sink([&, latency](std::span<const std::uint8_t> wire_bytes) {
      forward_times.push_back(queue.now().value);
      const int n = forward_count++;
      if (!forward_ok(n)) return true;  // lost on the air, but transmitted
      std::vector<std::uint8_t> copy(wire_bytes.begin(), wire_bytes.end());
      queue.schedule_after(util::Seconds{latency}, [&receiver, copy] {
        for (std::uint8_t b : copy) receiver.on_byte(b);
      });
      return true;
    });
    receiver.set_ack_sink([&, latency](std::span<const std::uint8_t> wire_bytes) {
      const int n = ack_count++;
      if (!ack_ok(n)) return true;
      std::vector<std::uint8_t> copy(wire_bytes.begin(), wire_bytes.end());
      queue.schedule_after(util::Seconds{latency}, [&arq, copy] {
        for (std::uint8_t b : copy) arq.on_ack_byte(b);
      });
      return true;
    });
  }
};

TEST_F(ArqFixture, CleanChannelDeliversEverythingOnceWithoutRetransmits) {
  EventArqSender arq(config, queue);
  ArqReceiver receiver;
  std::vector<std::uint8_t> delivered;
  receiver.set_frame_sink([&](const Frame& f) { delivered.push_back(f.seq); });
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
  receiver.set_frame_sink([&](const Frame& f) { delivered.push_back(f.seq); });
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
  receiver.set_frame_sink([&](const Frame& f) { delivered.push_back(f.seq); });
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
  config.window = 2;
  config.queue_capacity = 4;
  config.initial_timeout = util::Seconds{10.0};  // no retransmits during test
  EventArqSender arq(config, queue);
  ArqReceiver receiver;
  wire(arq, receiver);
  int accepted = 0;
  for (int i = 0; i < 10; ++i) {
    const std::uint8_t payload[] = {static_cast<std::uint8_t>(i)};
    if (arq.send(FrameType::State, payload)) ++accepted;
  }
  EXPECT_EQ(accepted, 4);
  EXPECT_EQ(arq.sender().drops_queue_full(), 6u);
  EXPECT_EQ(arq.sender().queued(), 4u);
  EXPECT_EQ(arq.sender().transmissions(), 2u);  // only the window transmitted
}

TEST_F(ArqFixture, TransportBackpressureDefersUntilSpace) {
  // A wire sink that refuses until notify_tx_space(), like a full UART
  // TX FIFO.
  bool fifo_full = true;
  EventArqSender arq(config, queue);
  ArqReceiver receiver;
  std::vector<std::uint8_t> delivered;
  receiver.set_frame_sink([&](const Frame& f) { delivered.push_back(f.seq); });
  arq.set_wire_sink([&](std::span<const std::uint8_t> wire_bytes) {
    if (fifo_full) return false;
    std::vector<std::uint8_t> copy(wire_bytes.begin(), wire_bytes.end());
    queue.schedule_after(util::Seconds{1e-3}, [&receiver, copy] {
      for (std::uint8_t b : copy) receiver.on_byte(b);
    });
    return true;
  });
  receiver.set_ack_sink([&](std::span<const std::uint8_t> wire_bytes) {
    std::vector<std::uint8_t> copy(wire_bytes.begin(), wire_bytes.end());
    queue.schedule_after(util::Seconds{1e-3}, [&arq, copy] {
      for (std::uint8_t b : copy) arq.on_ack_byte(b);
    });
    return true;
  });
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
  std::vector<Frame> delivered;
  ArqReceiver receiver;
  receiver.set_frame_sink([&](const Frame& f) { delivered.push_back(f); });
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
  arq.set_wire_sink([&](std::span<const std::uint8_t> wire_bytes) {
    sent.emplace_back(queue.now().value, parse_wire_frame(wire_bytes)->seq);
    return true;
  });
  const auto ack = [&](std::uint8_t seq) {
    for (std::uint8_t b : encode(Frame{FrameType::Ack, seq, {}})) arq.on_ack_byte(b);
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
  sender.set_wire_sink([&seqs](std::span<const std::uint8_t> wire_bytes) {
    seqs.push_back(parse_wire_frame(wire_bytes)->seq);
    return true;
  });
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
  sender.set_wire_sink([](std::span<const std::uint8_t>) { return true; });
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
  sender.set_wire_sink([](std::span<const std::uint8_t>) { return true; });
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
  arq.set_wire_sink([&](std::span<const std::uint8_t> wire_bytes) {
    if (uart.tx_free() < wire_bytes.size()) return false;
    for (std::uint8_t b : wire_bytes) uart.transmit(b);
    return true;
  });
  uart.set_tx_space_callback([&] { arq.notify_tx_space(); });
  forward.set_host_sink([&](std::uint8_t b) { receiver.on_byte(b); });
  receiver.set_ack_sink([&](std::span<const std::uint8_t> wire_bytes) {
    if (host_uart.tx_free() < wire_bytes.size()) return false;
    for (std::uint8_t b : wire_bytes) host_uart.transmit(b);
    return true;
  });
  reverse.set_host_sink([&](std::uint8_t b) { arq.on_ack_byte(b); });
  std::vector<std::uint8_t> delivered;
  receiver.set_frame_sink([&](const Frame& f) { delivered.push_back(f.payload.at(0)); });
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

// --- link stats -------------------------------------------------------------

TEST(LinkStats, PercentilesAndHistogramAgree) {
  LinkStats stats;
  for (int i = 1; i <= 100; ++i) stats.record_delivery_latency(i * 1e-3);
  EXPECT_EQ(stats.latency_count(), 100u);
  EXPECT_NEAR(stats.latency_percentile(0.50), 0.0505, 1e-4);
  EXPECT_GT(stats.latency_percentile(0.99), stats.latency_percentile(0.50));
  EXPECT_EQ(stats.latency_histogram().count(), 100u);
  // All 100 samples land in some bucket.
  std::uint64_t total = 0;
  for (const auto b : stats.latency_histogram().buckets()) total += b;
  EXPECT_EQ(total, 100u);
  EXPECT_FALSE(stats.latency_histogram().render().empty());
}

TEST(LinkStats, AttemptsSummary) {
  LinkStats stats;
  stats.record_attempts(1);
  stats.record_attempts(1);
  stats.record_attempts(4);
  EXPECT_NEAR(stats.mean_attempts(), 2.0, 1e-12);
  EXPECT_NEAR(stats.max_attempts(), 4.0, 1e-12);
}

TEST(LinkStats, SamplesCountersFromComponents) {
  FrameDecoder decoder;
  Frame frame;
  frame.payload = {1, 2};
  for (std::uint8_t byte : encode(frame)) decoder.feed(byte);
  auto bad = encode(frame);
  bad[4] ^= 0x40;
  for (std::uint8_t byte : bad) decoder.feed(byte);

  LinkStats stats;
  stats.sample(nullptr, &decoder, nullptr, nullptr, nullptr);
  EXPECT_EQ(stats.counters().frames_decoded, 1u);
  EXPECT_EQ(stats.counters().crc_errors, 1u);
  EXPECT_FALSE(stats.report().empty());
}

}  // namespace
}  // namespace distscroll::wireless
