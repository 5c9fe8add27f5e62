#include "menu/menu_builder.h"

#include <cassert>
#include <cstdio>

namespace distscroll::menu {

std::unique_ptr<MenuNode> make_flat_menu(std::size_t n) {
  assert(n > 0);
  auto root = std::make_unique<MenuNode>("list");
  char buf[32];
  for (std::size_t i = 0; i < n; ++i) {
    std::snprintf(buf, sizeof(buf), "Item %03zu", i + 1);
    root->add_child(buf);
  }
  return root;
}

}  // namespace distscroll::menu
