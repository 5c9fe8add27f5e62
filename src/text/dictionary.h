// Frequency-ranked dictionary with zone-sequence lookup — the "T9 like
// algorithm ... used to disambiguate entered words" of Unigesture
// (paper Section 2).
//
// Words are indexed by their ZoneKeyboard sequence; candidates for a
// sequence come back ranked by corpus frequency. A small embedded
// common-English list ships as the default corpus.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace distscroll::text {

class Dictionary {
 public:
  struct Entry {
    std::string word;
    std::uint32_t frequency;
  };

  Dictionary() = default;

  /// Add a word with a frequency weight; words with unmappable
  /// characters are rejected (returns false).
  bool add_word(std::string_view word, std::uint32_t frequency);

  [[nodiscard]] std::size_t size() const { return words_; }

  /// Candidates for an exact zone sequence, most frequent first.
  [[nodiscard]] std::vector<Entry> candidates(std::string_view zone_sequence) const;

  /// Rank (0-based) of `word` among candidates of its own sequence;
  /// nullopt if absent. Rank 0 = the disambiguator's first guess.
  // ds-lint: allow(test-only-api) the disambiguation tests read a word's rank; programs take candidates()
  [[nodiscard]] std::optional<std::size_t> rank_of(std::string_view word) const;

  /// The default embedded corpus (a few hundred common English words).
  [[nodiscard]] static Dictionary common_english();

 private:
  // sequence -> entries (kept sorted by descending frequency).
  std::map<std::string, std::vector<Entry>, std::less<>> by_sequence_;
  std::size_t words_ = 0;
};

}  // namespace distscroll::text
