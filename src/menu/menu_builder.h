// Fluent construction of menu trees for tests, examples and workload
// generators.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "menu/menu.h"

namespace distscroll::menu {

class MenuBuilder {
 public:
  explicit MenuBuilder(std::string root_label = "root")
      : root_(std::make_unique<MenuNode>(std::move(root_label))) {
    stack_.push_back(root_.get());
  }

  /// Add a leaf entry at the current level.
  MenuBuilder& item(std::string label) {
    stack_.back()->add_child(std::move(label));
    return *this;
  }

  /// Open a submenu at the current level; subsequent items go inside
  /// until end().
  MenuBuilder& submenu(std::string label) {
    MenuNode& node = stack_.back()->add_child(std::move(label));
    stack_.push_back(&node);
    return *this;
  }

  MenuBuilder& end() {
    if (stack_.size() > 1) stack_.pop_back();
    return *this;
  }

  [[nodiscard]] std::unique_ptr<MenuNode> build() {
    stack_.clear();
    return std::move(root_);
  }

 private:
  std::unique_ptr<MenuNode> root_;
  std::vector<MenuNode*> stack_;
};

/// A flat list menu of `n` entries ("Item 001" ...), the workload used
/// by the scrolling experiments.
[[nodiscard]] std::unique_ptr<MenuNode> make_flat_menu(std::size_t n);

}  // namespace distscroll::menu
