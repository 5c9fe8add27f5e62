// Hierarchical menu data structure and navigation cursor.
//
// DistScroll is "an interaction device for navigating data structures or
// browsing menus" (paper abstract). The menu tree is the data structure
// under navigation; MenuCursor is the per-session navigation state the
// firmware mutates (scroll within a level, enter a submenu, go back).
#pragma once

#include <algorithm>
#include <cassert>
#include <memory>
#include <string>
#include <vector>

namespace distscroll::menu {

class MenuNode {
 public:
  explicit MenuNode(std::string label) : label_(std::move(label)) {}

  [[nodiscard]] const std::string& label() const { return label_; }
  [[nodiscard]] bool is_leaf() const { return children_.empty(); }
  [[nodiscard]] std::size_t child_count() const { return children_.size(); }
  [[nodiscard]] const MenuNode& child(std::size_t i) const {
    assert(i < children_.size());
    return *children_[i];
  }
  [[nodiscard]] MenuNode& child(std::size_t i) {
    assert(i < children_.size());
    return *children_[i];
  }

  MenuNode& add_child(std::string label) {
    children_.push_back(std::make_unique<MenuNode>(std::move(label)));
    return *children_.back();
  }

 private:
  std::string label_;
  std::vector<std::unique_ptr<MenuNode>> children_;
};

/// Navigation state over a MenuNode tree. The cursor always points at an
/// entry of the "current level" (the children of some interior node).
class MenuCursor {
 public:
  explicit MenuCursor(const MenuNode& root) : root_(&root) {
    assert(!root.is_leaf() && "menu root must have entries");
  }

  [[nodiscard]] const MenuNode& current_level() const {
    return path_.empty() ? *root_ : *path_.back();
  }
  [[nodiscard]] std::size_t level_size() const { return current_level().child_count(); }
  [[nodiscard]] std::size_t index() const { return index_; }
  [[nodiscard]] const MenuNode& highlighted() const { return current_level().child(index_); }
  [[nodiscard]] std::size_t depth() const { return path_.size(); }

  /// First entry of a `lines`-line view of the level that keeps the
  /// cursor in the middle row where the level's ends allow.
  [[nodiscard]] std::size_t window_start(std::size_t lines) const {
    const std::size_t size = level_size();
    if (size <= lines) return 0;
    const std::size_t half = lines / 2;
    return std::min(index_ > half ? index_ - half : 0, size - lines);
  }

  /// Absolute positioning within the level — this is what distance
  /// scrolling drives. Clamps to the level bounds.
  void move_to(std::size_t i) {
    if (level_size() == 0) return;
    index_ = std::min(i, level_size() - 1);
  }

  void move_by(int delta) {
    const auto size = static_cast<long>(level_size());
    if (size == 0) return;
    long i = static_cast<long>(index_) + delta;
    i = std::max(0L, std::min(i, size - 1));
    index_ = static_cast<std::size_t>(i);
  }

  /// Enter the highlighted submenu; returns false for leaves (a leaf
  /// selection is an activation, not a navigation).
  bool enter() {
    const MenuNode& target = highlighted();
    if (target.is_leaf()) return false;
    path_.push_back(&target);
    index_ = 0;
    return true;
  }

  /// Go up one level; returns false at the root level.
  bool back() {
    if (path_.empty()) return false;
    const MenuNode* from = path_.back();
    path_.pop_back();
    // Restore the cursor onto the submenu we came from.
    const MenuNode& level = current_level();
    for (std::size_t i = 0; i < level.child_count(); ++i) {
      if (&level.child(i) == from) {
        index_ = i;
        return true;
      }
    }
    index_ = 0;
    return true;
  }

  void reset() {
    path_.clear();
    index_ = 0;
  }

 private:
  const MenuNode* root_;
  std::vector<const MenuNode*> path_;
  std::size_t index_ = 0;
};

}  // namespace distscroll::menu
