// Test-side random menu trees for the tree-navigation property tests
// and the device fuzzer, and the tree depth both bound the cursor by.
// No program builds random menus or measures a tree's depth, so these
// live with their only callers.
#pragma once

#include <algorithm>
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

/// Levels below the node (a leaf is 0).
inline std::size_t max_depth(const MenuNode& node) {
  std::size_t d = 0;
  for (std::size_t i = 0; i < node.child_count(); ++i) {
    d = std::max(d, 1 + max_depth(node.child(i)));
  }
  return d;
}

}  // namespace distscroll::menu::test_support
