// Zone keyboard for sensor-based text entry.
//
// The paper's related work (Section 2) is dominated by text-entry
// techniques: TiltText and Unigesture map groups ("zones") of letters to
// coarse device motions and disambiguate words afterwards. DistScroll's
// islands are exactly such a coarse selector — so the same zone/
// disambiguation machinery lets us compare distance-based text entry
// against the tilt-based originals (the authors included the ADXL311
// precisely "to reproduce results published by others").
//
// The alphabet is split into contiguous zones (Unigesture used 7 plus
// space); a word is entered as its zone sequence and resolved against a
// dictionary.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace distscroll::text {

class ZoneKeyboard {
 public:
  /// Unigesture-style layout: 7 letter zones + 1 space zone.
  static constexpr int kZones = 8;
  static constexpr int kSpaceZone = 7;

  /// Zone of a character; nullopt for anything outside [a-z ' '].
  [[nodiscard]] static constexpr std::optional<int> zone_of(char c) {
    if (c == ' ') return kSpaceZone;
    if (c < 'a' || c > 'z') return std::nullopt;
    // 26 letters across 7 zones: 4,4,4,4,4,3,3.
    const int index = c - 'a';
    if (index < 20) return index / 4;
    return 5 + (index - 20) / 3;
  }

  /// A word's zone sequence; nullopt if it contains unmapped characters.
  [[nodiscard]] static std::optional<std::string> zone_sequence(std::string_view word) {
    std::string sequence;
    sequence.reserve(word.size());
    for (char c : word) {
      const auto zone = zone_of(c);
      if (!zone) return std::nullopt;
      sequence.push_back(static_cast<char>('0' + *zone));
    }
    return sequence;
  }
};

}  // namespace distscroll::text
