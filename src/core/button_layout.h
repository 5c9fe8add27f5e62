// Button layout designs under study (paper Sections 4.5 / 6).
//
// The prototype has three buttons laid out for right-handed use; the
// authors "are currently experimenting with the number and position of
// the buttons", favouring either "a two button design with the buttons
// slidable along the sides" or "one large button that can easily be
// pressed independently of which hand is used".
//
// A layout determines, per user hand, how awkward each logical action's
// button is (miss-probability and press-time multipliers the study
// applies), and whether BACK is a physical button or a long-press of
// the single large button.
#pragma once

#include <cstdint>

namespace distscroll::core {

enum class Handedness : std::uint8_t { Right, Left };

enum class ButtonLayout : std::uint8_t {
  /// The prototype: one thumb button top-right, two finger buttons on
  /// the left side. "The layout provides a convenient right-handed
  /// usage" — and an awkward left-handed one.
  ThreeButtonRight,
  /// Two buttons slidable along the sides, configured per hand: both
  /// hands get thumb-reach buttons.
  SlidableTwoButton,
  /// One large button, hand-agnostic; short press = SELECT, long press
  /// = BACK (no third action: chunk paging folds onto double press).
  SingleLargeButton,
};

enum class ButtonAction : std::uint8_t { Select, Back, Aux };

struct ButtonErgonomics {
  double miss_multiplier = 1.0;   // on the profile's miss probability
  double time_multiplier = 1.0;   // on the profile's press time
};

/// Ergonomics of performing `action` on `layout` with `hand`.
[[nodiscard]] constexpr ButtonErgonomics ergonomics(ButtonLayout layout, Handedness hand,
                                                    ButtonAction action) {
  switch (layout) {
    case ButtonLayout::ThreeButtonRight:
      if (hand == Handedness::Right) {
        // Thumb select is ideal; finger buttons fine.
        return action == ButtonAction::Select ? ButtonErgonomics{0.8, 0.95}
                                              : ButtonErgonomics{1.0, 1.0};
      }
      // Left hand: the thumb lands on nothing, fingers curl around to
      // the "wrong" side — slow and slippery for every action.
      return action == ButtonAction::Select ? ButtonErgonomics{2.5, 1.5}
                                            : ButtonErgonomics{1.8, 1.3};
    case ButtonLayout::SlidableTwoButton:
      // Slid to the user's side: near-ideal for both hands; the third
      // action is missing, so Aux maps to a chorded press (slower).
      if (action == ButtonAction::Aux) return ButtonErgonomics{1.5, 1.8};
      return ButtonErgonomics{0.9, 1.0};
    case ButtonLayout::SingleLargeButton:
      switch (action) {
        case ButtonAction::Select:
          // A big target: hard to miss even with gloves.
          return ButtonErgonomics{0.4, 1.0};
        case ButtonAction::Back:
          // Long press: reliable but inherently slow (hold time).
          return ButtonErgonomics{0.5, 2.6};
        case ButtonAction::Aux:
          // Double press.
          return ButtonErgonomics{0.8, 2.0};
      }
      return ButtonErgonomics{};
  }
  return ButtonErgonomics{};
}

}  // namespace distscroll::core
