#include "text/text_entry.h"

#include <algorithm>

#include "text/zone_keyboard.h"

namespace distscroll::text {

/// Candidate list length shown on the display.
constexpr std::size_t kCandidateLimit = 5;

WordResult TextEntrySession::enter_word(baselines::ScrollTechnique& technique,
                                        std::string_view word,
                                        const human::UserProfile& profile, sim::Rng rng) const {
  WordResult result;
  result.word = std::string(word);
  const auto sequence = ZoneKeyboard::zone_sequence(word);
  if (!sequence) return result;

  human::MotionPlanner planner(rng.fork(1));
  double total_time = 0.0;

  // Phase 1: one zone acquisition per letter. The zone strip is a
  // "menu" of 8 entries; start from wherever the previous selection
  // left the channel (cursor position persists within the word).
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < sequence->size(); ++i) {
    const auto zone = static_cast<std::size_t>((*sequence)[i] - '0');
    technique.reset(ZoneKeyboard::kZones, cursor);
    const auto outcome = planner.acquire(technique, zone, profile);
    total_time += outcome.time_s;
    result.wrong_selections += outcome.wrong_selections;
    ++result.selections;
    if (!outcome.success) {
      result.time_s = total_time;
      return result;  // gave up mid-word
    }
    cursor = zone;
  }

  // Phase 2: pick the word in the candidate list.
  const auto candidates = dictionary_->candidates(*sequence);
  std::size_t rank = candidates.size();
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i].word == word) {
      rank = i;
      break;
    }
  }
  if (rank >= candidates.size() || rank >= kCandidateLimit) {
    // Word missing from the visible list: entry fails (the user would
    // fall back to a spelling mode we don't model).
    result.time_s = total_time;
    return result;
  }
  result.candidate_rank = rank;
  if (rank == 0) {
    // Already highlighted: a single confirm press.
    total_time += profile.verification_time_s + profile.button_press_s;
    ++result.selections;
  } else {
    technique.reset(std::min(candidates.size(), kCandidateLimit), 0);
    const auto outcome = planner.acquire(technique, rank, profile);
    total_time += outcome.time_s;
    result.wrong_selections += outcome.wrong_selections;
    ++result.selections;
    if (!outcome.success) {
      result.time_s = total_time;
      return result;
    }
  }

  result.success = true;
  result.time_s = total_time;
  return result;
}

std::vector<WordResult> TextEntrySession::enter_phrase(baselines::ScrollTechnique& technique,
                                                       std::string_view phrase,
                                                       const human::UserProfile& profile,
                                                       sim::Rng rng) const {
  std::vector<WordResult> results;
  std::size_t start = 0;
  std::size_t index = 0;
  while (start < phrase.size()) {
    std::size_t end = phrase.find(' ', start);
    if (end == std::string_view::npos) end = phrase.size();
    if (end > start) {
      results.push_back(
          enter_word(technique, phrase.substr(start, end - start), profile, rng.fork(index++)));
    }
    start = end + 1;
  }
  return results;
}

TextEntryStats TextEntrySession::aggregate(const std::vector<WordResult>& results) {
  TextEntryStats stats;
  if (results.empty()) return stats;
  double time = 0.0, selections = 0.0, chars = 0.0, successes = 0.0, errors = 0.0;
  for (const auto& r : results) {
    errors += r.wrong_selections;
    if (!r.success) continue;
    successes += 1.0;
    time += r.time_s;
    selections += static_cast<double>(r.selections);
    chars += static_cast<double>(r.word.size());
  }
  const auto n = static_cast<double>(results.size());
  stats.success_rate = successes / n;
  stats.errors_per_word = errors / n;
  if (successes > 0 && time > 0.0) {
    stats.words_per_minute = successes / (time / 60.0);
    stats.keystrokes_per_char = selections / std::max(1.0, chars);
  }
  return stats;
}

}  // namespace distscroll::text
