// Randomised robustness ("fuzz") tests: throw chaotic hands, button
// mashing, link garbage and hostile surfaces at the full device and
// check the invariants that must never break.
#include <gtest/gtest.h>

#include "core/distscroll_device.h"
#include "menu/menu_builder.h"
#include "pda/pda_host.h"
#include "wireless/packet.h"
#include "random_menu.h"
#include "wire_frames.h"

namespace distscroll {
namespace {

class DeviceFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeviceFuzz, ChaoticUseNeverBreaksInvariants) {
  sim::Rng rng(GetParam());
  sim::Rng menu_rng = rng.fork(1);
  auto menu_root = menu::test_support::make_random_menu(menu_rng, 2, 8, 3);

  sim::EventQueue queue;
  core::DistScrollDevice::Config config;
  // Randomise the configuration too.
  config.long_menu = static_cast<core::LongMenuStrategy>(rng.fork(2).uniform_int(0, 1));
  config.enable_fast_scroll = rng.fork(3).bernoulli(0.5);
  config.use_dual_sensor = rng.fork(4).bernoulli(0.5);
  config.scroll.smoothing = static_cast<core::Smoothing>(rng.fork(7).uniform_int(0, 2));

  double distance = 17.0;
  core::DistScrollDevice device(config, *menu_root, queue, rng.fork(8));
  device.set_distance_provider([&](util::Seconds) { return util::Centimeters{distance}; });
  // 30% of runs face a reflective vest.
  device.set_surface(rng.fork(9).bernoulli(0.3) ? sensors::SurfaceProfile{1.0, 0.12}
                                                : sensors::SurfaceProfile::gray_jacket());
  device.power_on();

  sim::Rng action = rng.fork(10);
  for (int step = 0; step < 400; ++step) {
    switch (action.uniform_int(0, 5)) {
      case 0:
        distance = action.uniform(0.0, 45.0);  // including fold + out of range
        break;
      case 1:
        device.select_button().press();
        break;
      case 2:
        device.select_button().release();
        break;
      case 3:
        device.back_button().press();
        device.back_button().release();
        break;
      case 4:
        device.aux_button().press();
        device.aux_button().release();
        break;
      case 5:
        break;  // just let time pass
    }
    queue.run_until(util::Seconds{queue.now().value + action.uniform(0.005, 0.1)});

    // Invariants.
    const auto& cursor = device.cursor();
    ASSERT_LT(cursor.index(), cursor.level_size());
    ASSERT_LE(cursor.depth(), menu::test_support::max_depth(*menu_root));
    ASSERT_GE(device.mapper().entries(), 1u);
    if (device.current_chunk()) {
      ASSERT_LT(*device.current_chunk(), 1000u);
    }
  }
  // The firmware must still be alive and sane.
  EXPECT_TRUE(device.powered());
  EXPECT_GT(device.board().mcu().cycles(), 0u);
  EXPECT_LE(device.board().mcu().ram_used(), 1536u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeviceFuzz,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88, 99, 110));

class DecoderFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecoderFuzz, RandomBytesNeverProduceInvalidFrames) {
  sim::Rng rng(GetParam());
  wireless::FrameDecoder decoder;
  int decoded = 0;
  const auto check = [&decoded](const wireless::FrameView& frame) {
    ++decoded;
    // Anything that decodes must be structurally valid.
    ASSERT_LE(frame.payload.size(), wireless::kMaxPayload);
    ASSERT_TRUE(wireless::is_known_frame_type(static_cast<std::uint8_t>(frame.type)));
  };
  for (int i = 0; i < 20000; ++i) {
    decoder.feed(static_cast<std::uint8_t>(rng.uniform_int(0, 255)), check);
  }
  // Random bytes occasionally form valid CRC-protected frames (1/256
  // per sync hit) — but only rarely.
  EXPECT_LT(decoded, 40);
}

TEST_P(DecoderFuzz, GarbageBetweenValidFramesNeverDesyncsForLong) {
  sim::Rng rng(GetParam() + 500);
  wireless::FrameDecoder decoder;
  int delivered = 0;
  const auto count = [&delivered](const wireless::FrameView&) { ++delivered; };
  constexpr int kFrames = 200;
  for (int i = 0; i < kFrames; ++i) {
    // Garbage burst.
    const int garbage = rng.uniform_int(0, 12);
    for (int g = 0; g < garbage; ++g) {
      decoder.feed(static_cast<std::uint8_t>(rng.uniform_int(0, 255)), count);
    }
    // A valid frame.
    const wireless::test_support::OwnedFrame frame{
        wireless::FrameType::State, static_cast<std::uint8_t>(i), {static_cast<std::uint8_t>(i), 7}};
    for (std::uint8_t byte : wireless::test_support::wire_of(frame)) decoder.feed(byte, count);
  }
  // A fake sync inside garbage can capture real bytes, but the resync
  // rescan must hand them back: since the rescan window always ends at a
  // frame boundary here, every valid frame eventually delivers.
  EXPECT_GT(delivered, kFrames * 9 / 10);
}

// The resync property under random traffic: build a random valid
// multi-frame stream, corrupt ONE random byte, and require that at most
// one frame is lost and nothing not-sent is ever delivered.
TEST_P(DecoderFuzz, SingleByteCorruptionOfRandomStreamLosesAtMostOneFrame) {
  sim::Rng rng(GetParam() + 9000);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<wireless::test_support::OwnedFrame> frames(8);
    for (std::size_t i = 0; i < frames.size(); ++i) {
      frames[i].type = static_cast<wireless::FrameType>(rng.uniform_int(1, 5));
      frames[i].seq = static_cast<std::uint8_t>(i);
      frames[i].payload.resize(static_cast<std::size_t>(rng.uniform_int(0, 8)));
      for (auto& b : frames[i].payload) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    auto wire = wireless::test_support::wire_of(frames);
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(wire.size()) - 1));
    const auto original = wire[pos];
    do {
      wire[pos] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    } while (wire[pos] == original);

    wireless::FrameDecoder decoder;
    const auto decoded = wireless::test_support::decode_all(decoder, wire);

    std::size_t matched = 0;
    std::size_t next = 0;
    for (const auto& frame : decoded) {
      const auto it =
          std::find(frames.begin() + static_cast<std::ptrdiff_t>(next), frames.end(), frame);
      ASSERT_NE(it, frames.end()) << "trial " << trial << ": decoded a frame never sent";
      ++matched;
      next = static_cast<std::size_t>(it - frames.begin()) + 1;
    }
    ASSERT_GE(matched, frames.size() - 1)
        << "trial " << trial << ": corrupting byte " << pos << " lost more than one frame";
    ASSERT_EQ(decoder.frames_decoded(), decoded.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecoderFuzz, ::testing::Values(1, 2, 3, 4, 5));

TEST(PdaHostFuzz, RandomByteStreamIsHarmless) {
  auto menu_root = menu::make_flat_menu(10);
  pda::PdaHost host(*menu_root);
  sim::Rng rng(77);
  for (int i = 0; i < 50000; ++i) {
    host.on_byte(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
    ASSERT_LT(host.cursor().index(), host.cursor().level_size());
  }
}

}  // namespace
}  // namespace distscroll
