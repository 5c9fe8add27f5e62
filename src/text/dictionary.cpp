#include "text/dictionary.h"

#include <algorithm>

#include "text/zone_keyboard.h"

namespace distscroll::text {

bool Dictionary::add_word(std::string_view word, std::uint32_t frequency) {
  const auto sequence = ZoneKeyboard::zone_sequence(word);
  if (!sequence || word.empty()) return false;
  auto& bucket = by_sequence_[*sequence];
  bucket.push_back({std::string(word), frequency});
  std::stable_sort(bucket.begin(), bucket.end(),
                   [](const Entry& a, const Entry& b) { return a.frequency > b.frequency; });
  ++words_;
  return true;
}

std::vector<Dictionary::Entry> Dictionary::candidates(std::string_view zone_sequence) const {
  const auto it = by_sequence_.find(zone_sequence);
  if (it == by_sequence_.end()) return {};
  return it->second;
}

std::optional<std::size_t> Dictionary::rank_of(std::string_view word) const {
  const auto sequence = ZoneKeyboard::zone_sequence(word);
  if (!sequence) return std::nullopt;
  const auto it = by_sequence_.find(*sequence);
  if (it == by_sequence_.end()) return std::nullopt;
  for (std::size_t i = 0; i < it->second.size(); ++i) {
    if (it->second[i].word == word) return i;
  }
  return std::nullopt;
}

Dictionary Dictionary::common_english() {
  // Frequency-weighted common-word corpus (weights are coarse relative
  // ranks, enough to exercise disambiguation realistically).
  static constexpr struct {
    const char* word;
    std::uint32_t freq;
  } kCorpus[] = {
      {"the", 10000}, {"of", 9000},    {"and", 8800},  {"a", 8600},     {"to", 8500},
      {"in", 8000},   {"is", 7500},    {"you", 7200},  {"that", 7000},  {"it", 6800},
      {"he", 6600},   {"was", 6400},   {"for", 6200},  {"on", 6000},    {"are", 5800},
      {"as", 5600},   {"with", 5400},  {"his", 5200},  {"they", 5000},  {"i", 4900},
      {"at", 4800},   {"be", 4700},    {"this", 4600}, {"have", 4500},  {"from", 4400},
      {"or", 4300},   {"one", 4200},   {"had", 4100},  {"by", 4000},    {"word", 3900},
      {"but", 3800},  {"not", 3700},   {"what", 3600}, {"all", 3500},   {"were", 3400},
      {"we", 3300},   {"when", 3200},  {"your", 3100}, {"can", 3000},   {"said", 2900},
      {"there", 2800}, {"use", 2700},  {"an", 2600},   {"each", 2500},  {"which", 2400},
      {"she", 2300},  {"do", 2200},    {"how", 2100},  {"their", 2000}, {"if", 1950},
      {"will", 1900}, {"up", 1850},    {"other", 1800}, {"about", 1750}, {"out", 1700},
      {"many", 1650}, {"then", 1600},  {"them", 1550}, {"these", 1500}, {"so", 1450},
      {"some", 1400}, {"her", 1350},   {"would", 1300}, {"make", 1250}, {"like", 1200},
      {"him", 1150},  {"into", 1100},  {"time", 1050}, {"has", 1000},   {"look", 980},
      {"two", 960},   {"more", 940},   {"write", 920}, {"go", 900},     {"see", 880},
      {"number", 860}, {"no", 840},    {"way", 820},   {"could", 800},  {"people", 780},
      {"my", 760},    {"than", 740},   {"first", 720}, {"water", 700},  {"been", 680},
      {"call", 660},  {"who", 640},    {"oil", 620},   {"its", 600},    {"now", 580},
      {"find", 560},  {"long", 540},   {"down", 520},  {"day", 500},    {"did", 490},
      {"get", 480},   {"come", 470},   {"made", 460},  {"may", 450},    {"part", 440},
      {"over", 430},  {"new", 420},    {"sound", 410}, {"take", 400},   {"only", 390},
      {"little", 380}, {"work", 370},  {"know", 360},  {"place", 350},  {"year", 340},
      {"live", 330},  {"me", 320},     {"back", 310},  {"give", 300},   {"most", 290},
      {"very", 280},  {"after", 270},  {"thing", 260}, {"our", 250},    {"just", 240},
      {"name", 230},  {"good", 220},   {"sentence", 210}, {"man", 200}, {"think", 195},
      {"say", 190},   {"great", 185},  {"where", 180}, {"help", 175},   {"through", 170},
      {"much", 165},  {"before", 160}, {"line", 155},  {"right", 150},  {"too", 145},
      {"mean", 140},  {"old", 135},    {"any", 130},   {"same", 125},   {"tell", 120},
      {"boy", 115},   {"follow", 110}, {"came", 105},  {"want", 100},   {"show", 98},
      {"also", 96},   {"around", 94},  {"form", 92},   {"three", 90},   {"small", 88},
      {"set", 86},    {"put", 84},     {"end", 82},    {"does", 80},    {"another", 78},
      {"well", 76},   {"large", 74},   {"must", 72},   {"big", 70},     {"even", 68},
      {"such", 66},   {"because", 64}, {"turn", 62},   {"here", 60},    {"why", 58},
      {"ask", 56},    {"went", 54},    {"men", 52},    {"read", 50},    {"need", 48},
      {"land", 46},   {"different", 44}, {"home", 42}, {"us", 40},      {"move", 38},
      {"try", 36},    {"kind", 34},    {"hand", 32},   {"picture", 30}, {"again", 28},
      {"change", 26}, {"off", 24},     {"play", 22},   {"spell", 20},   {"air", 18},
      {"away", 16},   {"animal", 14},  {"house", 12},  {"point", 10},   {"page", 9},
      {"letter", 8},  {"mother", 7},   {"answer", 6},  {"found", 5},    {"study", 4},
      {"still", 3},   {"learn", 2},    {"world", 1},
  };
  Dictionary dictionary;
  for (const auto& entry : kCorpus) dictionary.add_word(entry.word, entry.freq);
  return dictionary;
}

}  // namespace distscroll::text
