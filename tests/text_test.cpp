// Tests for the zone-keyboard text-entry stack (the Unigesture/TiltText
// comparison machinery).
#include <gtest/gtest.h>

#include <array>
#include <string_view>

#include "baselines/button_scroll.h"
#include "baselines/distance_scroll.h"
#include "text/dictionary.h"
#include "text/text_entry.h"
#include "text/zone_keyboard.h"

namespace distscroll::text {
namespace {

// --- zone keyboard -----------------------------------------------------------

TEST(ZoneKeyboard, EveryLetterHasAZone) {
  for (char c = 'a'; c <= 'z'; ++c) {
    const auto zone = ZoneKeyboard::zone_of(c);
    ASSERT_TRUE(zone.has_value()) << c;
    EXPECT_GE(*zone, 0);
    EXPECT_LT(*zone, ZoneKeyboard::kZones);
  }
  EXPECT_EQ(ZoneKeyboard::zone_of(' '), ZoneKeyboard::kSpaceZone);
}

TEST(ZoneKeyboard, RejectsNonAlphabet) {
  EXPECT_FALSE(ZoneKeyboard::zone_of('A').has_value());
  EXPECT_FALSE(ZoneKeyboard::zone_of('1').has_value());
  EXPECT_FALSE(ZoneKeyboard::zone_of('.').has_value());
}

TEST(ZoneKeyboard, ZonesPartitionTheAlphabet) {
  // a-z and space each fall in exactly one zone, and no zone is empty.
  std::array<int, ZoneKeyboard::kZones> per_zone{};
  for (const char c : std::string_view("abcdefghijklmnopqrstuvwxyz ")) {
    const auto zone = ZoneKeyboard::zone_of(c);
    ASSERT_TRUE(zone.has_value()) << c;
    ASSERT_GE(*zone, 0) << c;
    ASSERT_LT(*zone, ZoneKeyboard::kZones) << c;
    ++per_zone[static_cast<std::size_t>(*zone)];
  }
  for (const int count : per_zone) EXPECT_GT(count, 0);
}

TEST(ZoneKeyboard, SequenceOfWord) {
  const auto sequence = ZoneKeyboard::zone_sequence("bad");
  ASSERT_TRUE(sequence.has_value());
  EXPECT_EQ(*sequence, "000");
  EXPECT_FALSE(ZoneKeyboard::zone_sequence("Bad!").has_value());
}

// --- dictionary ----------------------------------------------------------------

TEST(Dictionary, CandidatesRankedByFrequency) {
  Dictionary dictionary;
  // "bad", "cab", "abc" share the zone sequence "000".
  dictionary.add_word("bad", 10);
  dictionary.add_word("cab", 100);
  dictionary.add_word("abc", 50);
  const auto candidates = dictionary.candidates("000");
  ASSERT_EQ(candidates.size(), 3u);
  EXPECT_EQ(candidates[0].word, "cab");
  EXPECT_EQ(candidates[1].word, "abc");
  EXPECT_EQ(candidates[2].word, "bad");
  EXPECT_EQ(dictionary.rank_of("bad"), 2u);
  EXPECT_EQ(dictionary.rank_of("cab"), 0u);
}

TEST(Dictionary, RejectsUnmappableWords) {
  Dictionary dictionary;
  EXPECT_FALSE(dictionary.add_word("Ümlaut", 1));
  EXPECT_FALSE(dictionary.add_word("", 1));
  EXPECT_EQ(dictionary.size(), 0u);
}

TEST(Dictionary, CommonEnglishLoads) {
  const auto dictionary = Dictionary::common_english();
  EXPECT_GT(dictionary.size(), 150u);
  // The most frequent word must be its own sequence's first guess.
  EXPECT_EQ(dictionary.rank_of("the"), 0u);
}

TEST(Dictionary, EveryCommonWordIsFindable) {
  // Property: every embedded word disambiguates within the top 5 of its
  // own zone sequence (the visible candidate list).
  const auto dictionary = Dictionary::common_english();
  for (const char* word : {"the", "and", "you", "water", "people", "world", "house"}) {
    const auto rank = dictionary.rank_of(word);
    ASSERT_TRUE(rank.has_value()) << word;
    EXPECT_LT(*rank, 5u) << word;
  }
}

// --- end-to-end sessions -----------------------------------------------------------

TEST(TextEntry, EnterWordWithButtons) {
  const auto dictionary = Dictionary::common_english();
  TextEntrySession session(dictionary);
  baselines::ButtonScroll technique;
  const auto result = session.enter_word(technique, "the", human::UserProfile{}.with_expertise(0.95),
                                         sim::Rng(1));
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.selections, 4u);  // 3 zones + 1 confirm
  EXPECT_GT(result.time_s, 0.5);
  EXPECT_EQ(result.candidate_rank, 0u);
}

TEST(TextEntry, EnterWordWithDistanceScroll) {
  const auto dictionary = Dictionary::common_english();
  TextEntrySession session(dictionary);
  baselines::DistanceScroll technique({}, sim::Rng(3));
  const auto result = session.enter_word(technique, "and", human::UserProfile::average(),
                                         sim::Rng(2));
  EXPECT_TRUE(result.success);
}

TEST(TextEntry, UnknownWordFails) {
  Dictionary dictionary;
  dictionary.add_word("the", 1);
  TextEntrySession session(dictionary);
  baselines::ButtonScroll technique;
  const auto result =
      session.enter_word(technique, "zzz", human::UserProfile{}.with_expertise(0.95), sim::Rng(1));
  EXPECT_FALSE(result.success);
}

TEST(TextEntry, PhraseSplitsWords) {
  const auto dictionary = Dictionary::common_english();
  TextEntrySession session(dictionary);
  baselines::ButtonScroll technique;
  const auto results =
      session.enter_phrase(technique, "we can go", human::UserProfile{}.with_expertise(0.95), sim::Rng(4));
  ASSERT_EQ(results.size(), 3u);
  for (const auto& r : results) EXPECT_TRUE(r.success) << r.word;
}

TEST(TextEntry, AggregateStats) {
  const auto dictionary = Dictionary::common_english();
  TextEntrySession session(dictionary);
  baselines::ButtonScroll technique;
  const auto results = session.enter_phrase(technique, "the and you we",
                                            human::UserProfile{}.with_expertise(0.95), sim::Rng(5));
  const auto stats = TextEntrySession::aggregate(results);
  EXPECT_GT(stats.words_per_minute, 1.0);
  EXPECT_LT(stats.words_per_minute, 60.0);
  EXPECT_GT(stats.keystrokes_per_char, 0.9);  // >= 1 press/char + confirm
  EXPECT_DOUBLE_EQ(stats.success_rate, 1.0);
}

TEST(TextEntry, ExpertFasterThanNovice) {
  const auto dictionary = Dictionary::common_english();
  TextEntrySession session(dictionary);
  baselines::ButtonScroll technique;
  const auto expert = session.enter_phrase(technique, "the water people",
                                           human::UserProfile{}.with_expertise(0.95), sim::Rng(6));
  const auto novice = session.enter_phrase(technique, "the water people",
                                           human::UserProfile{}.with_expertise(0.15), sim::Rng(6));
  const auto stats_e = TextEntrySession::aggregate(expert);
  const auto stats_n = TextEntrySession::aggregate(novice);
  EXPECT_GT(stats_e.words_per_minute, stats_n.words_per_minute);
}

}  // namespace
}  // namespace distscroll::text
