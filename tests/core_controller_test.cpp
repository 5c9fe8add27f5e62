// Tests for the scroll controller (direction mapping, smoothing,
// statistics), chunked scrolling and the expert fast-scroll mode.
#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "core/chunked_scroll.h"
#include "core/fast_scroll.h"
#include "core/island_mapper.h"
#include "core/scroll_controller.h"
#include "obs/tracer.h"
#include "sim/random.h"

namespace distscroll::core {
namespace {

struct ControllerFixture : ::testing::Test {
  SensorCurve curve{};
  IslandMapper mapper{curve, 5, {}};

  std::uint16_t centre(std::size_t island) const { return mapper.islands()[island].centre; }
};

TEST_F(ControllerFixture, TowardUserScrollsDownMapping) {
  ScrollController controller(mapper, {ScrollDirection::TowardUserScrollsDown, Smoothing::Raw});
  // Island 0 = nearest: with "down" mapping it is the LAST menu entry.
  auto update = controller.on_sample(util::AdcCounts{centre(0)});
  EXPECT_EQ(update.menu_index, 4u);
  update = controller.on_sample(util::AdcCounts{centre(4)});
  EXPECT_EQ(update.menu_index, 0u);
}

TEST_F(ControllerFixture, TowardUserScrollsUpMapping) {
  ScrollController controller(mapper, {ScrollDirection::TowardUserScrollsUp, Smoothing::Raw});
  auto update = controller.on_sample(util::AdcCounts{centre(0)});
  EXPECT_EQ(update.menu_index, 0u);
}

TEST_F(ControllerFixture, NoSelectionBeforeFirstIslandHit) {
  ScrollController controller(mapper, {});
  // A count in no island:
  const auto update = controller.on_sample(util::AdcCounts{1023});
  EXPECT_FALSE(update.menu_index.has_value());
  EXPECT_FALSE(controller.selection().has_value());
}

TEST_F(ControllerFixture, GapKeepsSelection) {
  ScrollController controller(mapper, {});
  controller.on_sample(util::AdcCounts{centre(2)});
  const auto before = controller.selection();
  const auto gap =
      static_cast<std::uint16_t>((mapper.islands()[2].low + mapper.islands()[3].high) / 2);
  const auto update = controller.on_sample(util::AdcCounts{gap});
  EXPECT_EQ(update.menu_index, before);
  EXPECT_FALSE(update.changed);
  EXPECT_EQ(controller.gap_samples(), 1u);
}

TEST_F(ControllerFixture, ChangeCountingAndStats) {
  ScrollController controller(mapper, {});
  controller.on_sample(util::AdcCounts{centre(0)});
  controller.on_sample(util::AdcCounts{centre(0)});
  controller.on_sample(util::AdcCounts{centre(1)});
  EXPECT_EQ(controller.samples(), 3u);
  EXPECT_EQ(controller.selection_changes(), 2u);  // null->0, 0->1
}

TEST_F(ControllerFixture, Median3KillsSingleGlitch) {
  ScrollController raw(mapper, {ScrollDirection::TowardUserScrollsUp, Smoothing::Raw});
  ScrollController filtered(mapper, {ScrollDirection::TowardUserScrollsUp, Smoothing::Median3});
  // Steady on island 1, one glitch sample at island 4's centre, steady.
  const std::uint16_t steady = centre(1), glitch = centre(4);
  for (auto* c : {&raw, &filtered}) {
    c->on_sample(util::AdcCounts{steady});
    c->on_sample(util::AdcCounts{steady});
  }
  raw.on_sample(util::AdcCounts{glitch});
  filtered.on_sample(util::AdcCounts{glitch});
  EXPECT_EQ(raw.selection(), 4u);       // raw follows the glitch
  EXPECT_EQ(filtered.selection(), 1u);  // median suppresses it
}

TEST_F(ControllerFixture, EmaConvergesToNewLevel) {
  ScrollController controller(mapper, {ScrollDirection::TowardUserScrollsUp, Smoothing::Ema});
  for (int i = 0; i < 3; ++i) controller.on_sample(util::AdcCounts{centre(0)});
  EXPECT_EQ(controller.selection(), 0u);
  // Step to island 3: EMA takes a few samples but converges.
  std::optional<std::size_t> final;
  for (int i = 0; i < 20; ++i) {
    final = controller.on_sample(util::AdcCounts{centre(3)}).menu_index;
  }
  EXPECT_EQ(final, 3u);
}

TEST_F(ControllerFixture, RawCheaperThanFilters) {
  ScrollController raw(mapper, {ScrollDirection::TowardUserScrollsUp, Smoothing::Raw});
  ScrollController med(mapper, {ScrollDirection::TowardUserScrollsUp, Smoothing::Median3});
  const auto raw_cost = raw.on_sample(util::AdcCounts{centre(0)}).cycles;
  const auto med_cost = med.on_sample(util::AdcCounts{centre(0)}).cycles;
  EXPECT_LT(raw_cost, med_cost);
  // The whole per-sample cost stays tiny — the paper's "no heavy input
  // processing" claim: well under 100 cycles (10 us at 10 MIPS).
  EXPECT_LT(med_cost, 100u);
}

TEST_F(ControllerFixture, ResetClearsState) {
  ScrollController controller(mapper, {});
  controller.on_sample(util::AdcCounts{centre(2)});
  controller.reset();
  EXPECT_FALSE(controller.selection().has_value());
}

// --- differential: the branch-free step against a plain reference -----------

/// The controller step written the plain way: an optional selection, a
/// branch on every gap/hit, a deque window for the median and the
/// stateless binary-search lookup() as the table. ScrollController's
/// branch-free on_sample must match it sample for sample.
class ReferenceController {
 public:
  ReferenceController(const IslandMapper& mapper, ScrollController::Config config)
      : mapper_(mapper), config_(config) {}

  void reset() {
    selection_.reset();
    in_gap_ = false;
    window_.clear();
    ema_ = -1;
  }

  ScrollController::Update on_sample(std::uint16_t raw) {
    ScrollController::Update update;
    ++samples_;
    const std::uint16_t filtered = smooth(raw, update.cycles);
    const std::optional<std::size_t> before = selection_;
    const bool was_in_gap = in_gap_;

    bool held = false;
    const std::uint16_t h = mapper_.config().hysteresis_counts;
    if (selection_ && *selection_ < mapper_.entries() && h > 0) {
      const IslandMapper::Island& island = mapper_.islands()[*selection_];
      held = filtered >= island.low - h && filtered <= island.high + h;
    }
    bool in_gap = false;
    if (held) {
      update.cycles += IslandMapper::hysteresis_hold_cycles();
    } else {
      update.cycles += IslandMapper::lookup_cost_cycles();
      if (const auto hit = mapper_.lookup(util::AdcCounts{filtered})) {
        selection_ = hit;
      } else {
        in_gap = true;
        ++gap_samples_;
      }
    }
    in_gap_ = in_gap;
    if (selection_ != before) {
      ++changes_;
      update.changed = true;
      if (before) record(obs::EventKind::IslandLeave, *before, menu_index(*before));
      record(obs::EventKind::IslandEnter, *selection_, menu_index(*selection_));
    } else if (!in_gap && was_in_gap && selection_) {
      record(obs::EventKind::IslandEnter, *selection_, menu_index(*selection_));
    }
    if (in_gap && !was_in_gap && selection_) {
      record(obs::EventKind::DeadZoneCross, *selection_, filtered);
    }
    update.menu_index = selection();
    return update;
  }

  [[nodiscard]] std::optional<std::size_t> selection() const {
    if (!selection_) return std::nullopt;
    return menu_index(*selection_);
  }
  [[nodiscard]] std::uint64_t samples() const { return samples_; }
  [[nodiscard]] std::uint64_t selection_changes() const { return changes_; }
  [[nodiscard]] std::uint64_t gap_samples() const { return gap_samples_; }
  [[nodiscard]] const std::vector<obs::TraceEvent>& events() const { return events_; }

 private:
  std::uint16_t smooth(std::uint16_t raw, std::uint64_t& cycles) {
    switch (config_.smoothing) {
      case Smoothing::Raw:
        cycles += 2;
        return raw;
      case Smoothing::Median3: {
        window_.push_back(raw);
        if (window_.size() > 3) window_.pop_front();
        cycles += 18;
        if (window_.size() < 3) return raw;
        const std::uint16_t a = window_[0], b = window_[1], c = window_[2];
        return std::max(std::min(a, b), std::min(std::max(a, b), c));
      }
      case Smoothing::Ema:
        if (ema_ < 0) ema_ = raw * 4;
        ema_ += (raw * 4 - ema_) >> 2;  // arithmetic shift: floor of a negative step
        cycles += 10;
        return static_cast<std::uint16_t>(ema_ >> 2);
    }
    return raw;
  }

  [[nodiscard]] std::size_t menu_index(std::size_t island) const {
    return config_.direction == ScrollDirection::TowardUserScrollsDown
               ? mapper_.entries() - 1 - island
               : island;
  }

  void record(obs::EventKind kind, std::size_t a, std::size_t b) {
    obs::TraceEvent event;
    event.kind = kind;
    event.a = static_cast<std::uint32_t>(a);
    event.b = static_cast<std::uint32_t>(b);
    events_.push_back(event);
  }

  const IslandMapper& mapper_;
  ScrollController::Config config_;
  std::optional<std::size_t> selection_;
  bool in_gap_ = false;
  std::deque<std::uint16_t> window_;
  std::int32_t ema_ = -1;  // counts x 4
  std::uint64_t samples_ = 0;
  std::uint64_t changes_ = 0;
  std::uint64_t gap_samples_ = 0;
  std::vector<obs::TraceEvent> events_;
};

/// A random count stream in short runs of five kinds: uniform over the
/// ADC range, gap-heavy (between two islands), near an island edge
/// (within +-4 counts, so inside and just past a 3-count hysteresis
/// band), past the 10-bit range (>= 1024), and dwelling on the last
/// value.
std::vector<std::uint16_t> random_count_stream(const IslandMapper& mapper, std::size_t length,
                                               sim::Rng& rng) {
  const auto& islands = mapper.islands();
  const int last = static_cast<int>(islands.size()) - 1;
  std::vector<std::uint16_t> stream;
  stream.reserve(length);
  std::uint16_t previous = 512;
  while (stream.size() < length) {
    const int kind = rng.uniform_int(0, 4);
    const int run = rng.uniform_int(1, 24);
    for (int r = 0; r < run && stream.size() < length; ++r) {
      int counts = previous;
      switch (kind) {
        case 0:
          counts = rng.uniform_int(0, 1023);
          break;
        case 1: {
          const int i = rng.uniform_int(0, std::max(0, last - 1));
          const int hi = islands[static_cast<std::size_t>(i)].low - 1;
          const int lo = i < last ? islands[static_cast<std::size_t>(i) + 1].high + 1 : 0;
          counts = lo <= hi ? rng.uniform_int(lo, hi) : rng.uniform_int(0, 1023);
          break;
        }
        case 2: {
          const auto& island = islands[static_cast<std::size_t>(rng.uniform_int(0, last))];
          const int edge = rng.bernoulli(0.5) ? island.low : island.high;
          counts = std::clamp(edge + rng.uniform_int(-4, 4), 0, 1023);
          break;
        }
        case 3:
          counts = rng.bernoulli(0.25) ? 1024 : rng.uniform_int(1024, 0xFFFF);
          break;
        default:
          break;
      }
      previous = static_cast<std::uint16_t>(counts);
      stream.push_back(previous);
    }
  }
  return stream;
}

TEST(ControllerDifferential, BranchFreeStepMatchesThePlainReference) {
  constexpr std::size_t kSamples = 100000;
  constexpr std::size_t kResetEvery = 9973;  // also cover reset() mid-stream
  struct Menu {
    std::size_t entries;
    double coverage;
    double far_cm;
    double offset_v;  // SensorCurve::Params::c
  };
  // 300 entries leave empty islands. In the last menu the farthest
  // island reaches count 0, so a count >= 1024 that aliased LUT slot
  // (count & 1023) would select an island instead of the gap.
  const Menu menus[] = {{7, 0.6, 30.0, 0.0}, {40, 0.6, 30.0, 0.0}, {300, 0.6, 30.0, 0.0},
                        {12, 1.0, 34.0, -0.3}};
  sim::Rng rng(2718);
  for (const std::uint16_t hysteresis : {std::uint16_t{0}, std::uint16_t{3}}) {
    for (const Menu& menu : menus) {
      SensorCurve::Params params;
      params.c = menu.offset_v;
      IslandMapper::Config mapper_config;
      mapper_config.far = util::Centimeters{menu.far_cm};
      mapper_config.coverage = menu.coverage;
      mapper_config.hysteresis_counts = hysteresis;
      const IslandMapper mapper(SensorCurve(params), menu.entries, mapper_config);
      if (menu.offset_v < 0.0) {
        ASSERT_TRUE(mapper.lookup(util::AdcCounts{0}).has_value());
      }
      const std::vector<std::uint16_t> stream = random_count_stream(mapper, kSamples, rng);
      for (const Smoothing smoothing : {Smoothing::Raw, Smoothing::Median3, Smoothing::Ema}) {
        for (const ScrollDirection direction :
             {ScrollDirection::TowardUserScrollsDown, ScrollDirection::TowardUserScrollsUp}) {
          for (const bool traced : {false, true}) {
            SCOPED_TRACE(testing::Message()
                         << "hysteresis " << hysteresis << ", entries " << menu.entries
                         << ", smoothing " << static_cast<int>(smoothing) << ", direction "
                         << static_cast<int>(direction) << ", traced " << traced);
            const ScrollController::Config config{direction, smoothing};
            obs::Tracer tracer(1 << 18);
            ScrollController controller(mapper, config, traced ? &tracer : nullptr);
            ReferenceController reference(mapper, config);
            for (std::size_t i = 0; i < stream.size(); ++i) {
              if (i % kResetEvery == kResetEvery - 1) {
                controller.reset();
                reference.reset();
              }
              const auto got = controller.on_sample(util::AdcCounts{stream[i]});
              const auto want = reference.on_sample(stream[i]);
              ASSERT_EQ(got.menu_index, want.menu_index) << "sample " << i;
              ASSERT_EQ(got.changed, want.changed) << "sample " << i;
              ASSERT_EQ(got.cycles, want.cycles) << "sample " << i;
              ASSERT_EQ(controller.selection(), reference.selection()) << "sample " << i;
            }
            EXPECT_EQ(controller.samples(), reference.samples());
            EXPECT_EQ(controller.selection_changes(), reference.selection_changes());
            EXPECT_EQ(controller.gap_samples(), reference.gap_samples());
            EXPECT_GT(reference.gap_samples(), 0u);
            EXPECT_EQ(tracer.dropped(), 0u);
            if (traced && obs::Tracer::compiled_in()) {
              EXPECT_EQ(tracer.snapshot(), reference.events());
              EXPECT_GT(reference.events().size(), 0u);
            } else {
              EXPECT_EQ(tracer.size(), 0u);
            }
          }
        }
      }
    }
  }
}

// --- chunked scroll -----------------------------------------------------------

TEST(ChunkedScroll, BasicPaging) {
  ChunkedScroll chunks(25, 10);
  EXPECT_EQ(chunks.chunk_count(), 3u);
  EXPECT_EQ(chunks.entries_in_chunk(), 10u);
  EXPECT_EQ(chunks.to_absolute(4), 4u);
  EXPECT_TRUE(chunks.next_chunk());
  EXPECT_EQ(chunks.to_absolute(4), 14u);
  EXPECT_TRUE(chunks.next_chunk());
  EXPECT_EQ(chunks.entries_in_chunk(), 5u);  // short last chunk
  EXPECT_FALSE(chunks.next_chunk());
  EXPECT_EQ(chunks.chunk(), 2u);
}

TEST(ChunkedScroll, ChunkOfAbsoluteIndex) {
  ChunkedScroll chunks(25, 10);
  EXPECT_EQ(chunks.chunk_of(0), 0u);
  EXPECT_EQ(chunks.chunk_of(9), 0u);
  EXPECT_EQ(chunks.chunk_of(10), 1u);
  EXPECT_EQ(chunks.chunk_of(24), 2u);
  EXPECT_EQ(chunks.chunk_of(999), 2u);  // clamped
}

TEST(ChunkedScroll, ToAbsoluteClampsInShortChunk) {
  ChunkedScroll chunks(25, 10);
  chunks.jump_to_chunk(2);
  EXPECT_EQ(chunks.to_absolute(9), 24u);  // beyond the short chunk clamps
}

TEST(ChunkedScroll, ExactMultipleHasNoShortChunk) {
  ChunkedScroll chunks(30, 10);
  EXPECT_EQ(chunks.chunk_count(), 3u);
  chunks.jump_to_chunk(2);
  EXPECT_EQ(chunks.entries_in_chunk(), 10u);
}

TEST(ChunkedScroll, DegenerateSizes) {
  ChunkedScroll one(1, 10);
  EXPECT_EQ(one.chunk_count(), 1u);
  EXPECT_FALSE(one.next_chunk());
  EXPECT_EQ(one.to_absolute(5), 0u);
}

// --- fast scroll -------------------------------------------------------------------

// The turbo zone repeats every 0.12 s.

TEST(FastScroll, InactiveBelowThreshold) {
  FastScrollMode turbo(500);
  EXPECT_EQ(turbo.on_sample(util::Seconds{0.0}, util::AdcCounts{400}), 0);
  EXPECT_FALSE(turbo.active());
}

TEST(FastScroll, ImmediateStepOnEntry) {
  FastScrollMode turbo(500);
  EXPECT_EQ(turbo.on_sample(util::Seconds{0.0}, util::AdcCounts{600}), 1);
  EXPECT_TRUE(turbo.active());
}

TEST(FastScroll, RepeatsAtPeriod) {
  FastScrollMode turbo(500);
  turbo.on_sample(util::Seconds{0.0}, util::AdcCounts{600});
  EXPECT_EQ(turbo.on_sample(util::Seconds{0.06}, util::AdcCounts{600}), 0);
  EXPECT_EQ(turbo.on_sample(util::Seconds{0.13}, util::AdcCounts{600}), 1);
  // A long stay emits catch-up steps (at 0.24, 0.36 and 0.48 s).
  EXPECT_EQ(turbo.on_sample(util::Seconds{0.53}, util::AdcCounts{600}), 3);
}

TEST(FastScroll, LeavingZoneDeactivates) {
  FastScrollMode turbo(500);
  turbo.on_sample(util::Seconds{0.0}, util::AdcCounts{600});
  EXPECT_EQ(turbo.on_sample(util::Seconds{0.2}, util::AdcCounts{300}), 0);
  EXPECT_FALSE(turbo.active());
  // Re-entry steps immediately again.
  EXPECT_EQ(turbo.on_sample(util::Seconds{0.3}, util::AdcCounts{600}), 1);
}

}  // namespace
}  // namespace distscroll::core
