// Test-side random menu trees for the tree-navigation property tests
// and the device fuzzer. No program builds random menus, so the
// generator lives with its only callers.
#pragma once

#include <cassert>
#include <memory>
#include <string>

#include "menu/menu.h"
#include "sim/random.h"

namespace distscroll::menu::test_support {

namespace detail {
inline void grow(MenuNode& node, sim::Rng& rng, int min_fanout, int max_fanout, int levels) {
  if (levels <= 0) return;
  const int fanout = rng.uniform_int(min_fanout, max_fanout);
  for (int i = 0; i < fanout; ++i) {
    MenuNode& child = node.add_child(node.label() + "." + std::to_string(i));
    // Interior with probability 0.5 except at the last level.
    if (levels > 1 && rng.bernoulli(0.5)) {
      grow(child, rng, min_fanout, max_fanout, levels - 1);
    }
  }
}
}  // namespace detail

/// A random hierarchical menu with given fanout range and depth.
inline std::unique_ptr<MenuNode> make_random_menu(sim::Rng& rng, int min_fanout,
                                                  int max_fanout, int levels) {
  assert(min_fanout >= 1 && max_fanout >= min_fanout && levels >= 1);
  auto root = std::make_unique<MenuNode>("r");
  detail::grow(*root, rng, min_fanout, max_fanout, levels);
  // Guarantee the root is non-empty (MenuCursor requires entries).
  if (root->is_leaf()) root->add_child("r.only");
  return root;
}

}  // namespace distscroll::menu::test_support
