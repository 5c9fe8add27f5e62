// Hierarchical menu data structure and navigation cursor.
//
// DistScroll is "an interaction device for navigating data structures or
// browsing menus" (paper abstract). The menu tree is the data structure
// under navigation; MenuCursor is the per-session navigation state the
// firmware mutates (scroll within a level, enter a submenu, go back).
#pragma once

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

  /// Total nodes in the subtree including this one.
  [[nodiscard]] std::size_t subtree_size() const {
    std::size_t n = 1;
    for (const auto& c : children_) n += c->subtree_size();
    return n;
  }

  /// Maximum depth below this node (leaf = 0).
  [[nodiscard]] std::size_t depth() const {
    std::size_t d = 0;
    for (const auto& c : children_) d = std::max(d, 1 + c->depth());
    return d;
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
