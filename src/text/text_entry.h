// Word entry through a scrolling technique.
//
// Protocol per word (the Unigesture interaction, driven by any
// baselines::ScrollTechnique instead of wrist tilt):
//   1. per letter: acquire the letter's zone among the 8 zone "entries"
//      and confirm with the select button;
//   2. after the last letter: the disambiguator proposes candidates;
//      the intended word sits at some rank — acquire and confirm it in
//      the candidate list (rank 0 = it is already highlighted).
//
// TextEntrySession runs the closed-loop human model for every one of
// those acquisitions and aggregates words-per-minute, keystrokes per
// character, and error counts.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "baselines/scroll_technique.h"
#include "human/motion_planner.h"
#include "text/dictionary.h"

namespace distscroll::text {

struct WordResult {
  std::string word;
  bool success = false;
  double time_s = 0.0;
  std::size_t selections = 0;     // zone confirms + candidate confirm
  std::size_t candidate_rank = 0; // where the word sat in the list
  int wrong_selections = 0;
};

struct TextEntryStats {
  double words_per_minute = 0.0;
  double keystrokes_per_char = 0.0;  // selections / characters (T9 KSPC analog)
  double success_rate = 0.0;
  double errors_per_word = 0.0;
};

class TextEntrySession {
 public:
  explicit TextEntrySession(const Dictionary& dictionary) : dictionary_(&dictionary) {}

  /// Enter one word with the given technique and participant.
  [[nodiscard]] WordResult enter_word(baselines::ScrollTechnique& technique,
                                      std::string_view word, const human::UserProfile& profile,
                                      sim::Rng rng) const;

  /// Enter a phrase (space-separated words); returns per-word results.
  [[nodiscard]] std::vector<WordResult> enter_phrase(baselines::ScrollTechnique& technique,
                                                     std::string_view phrase,
                                                     const human::UserProfile& profile,
                                                     sim::Rng rng) const;

  [[nodiscard]] static TextEntryStats aggregate(const std::vector<WordResult>& results);

 private:
  const Dictionary* dictionary_;
};

}  // namespace distscroll::text
