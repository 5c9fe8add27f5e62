// Unit + property tests for the hierarchical menu model.
#include <gtest/gtest.h>

#include "menu/menu.h"
#include "menu/menu_builder.h"
#include "menu/phone_menu.h"
#include "random_menu.h"

namespace distscroll::menu {
namespace {

using test_support::make_random_menu;
using test_support::max_depth;

/// Nodes in the subtree, this one included.
std::size_t count_nodes(const MenuNode& node) {
  std::size_t n = 1;
  for (std::size_t i = 0; i < node.child_count(); ++i) n += count_nodes(node.child(i));
  return n;
}

TEST(MenuNode, LeafAndInterior) {
  MenuNode root("root");
  EXPECT_TRUE(root.is_leaf());
  root.add_child("a");
  EXPECT_FALSE(root.is_leaf());
  EXPECT_EQ(root.child_count(), 1u);
  EXPECT_EQ(root.child(0).label(), "a");
}

TEST(MenuNode, SubtreeSizeAndDepth) {
  MenuNode root("root");
  MenuNode& a = root.add_child("a");
  a.add_child("a1");
  a.add_child("a2");
  root.add_child("b");
  EXPECT_EQ(count_nodes(root), 5u);
  EXPECT_EQ(max_depth(root), 2u);
  EXPECT_EQ(max_depth(a), 1u);
}

TEST(MenuCursor, MoveWithinLevel) {
  MenuNode root("root");
  for (int i = 0; i < 5; ++i) root.add_child("item" + std::to_string(i));
  MenuCursor cursor(root);
  EXPECT_EQ(cursor.index(), 0u);
  cursor.move_to(3);
  EXPECT_EQ(cursor.highlighted().label(), "item3");
  cursor.move_to(99);  // clamps
  EXPECT_EQ(cursor.index(), 4u);
  cursor.move_by(-2);
  EXPECT_EQ(cursor.index(), 2u);
  cursor.move_by(-10);
  EXPECT_EQ(cursor.index(), 0u);
  cursor.move_by(100);
  EXPECT_EQ(cursor.index(), 4u);
}

TEST(MenuCursor, EnterAndBack) {
  auto root = MenuBuilder("r").submenu("sub").item("x").item("y").end().item("leaf").build();
  MenuCursor cursor(*root);
  EXPECT_TRUE(cursor.enter());  // into "sub"
  EXPECT_EQ(cursor.depth(), 1u);
  EXPECT_EQ(cursor.level_size(), 2u);
  EXPECT_EQ(cursor.highlighted().label(), "x");
  EXPECT_TRUE(cursor.back());
  EXPECT_EQ(cursor.depth(), 0u);
  // Cursor restored onto the submenu we left.
  EXPECT_EQ(cursor.highlighted().label(), "sub");
}

TEST(MenuCursor, EnterLeafFails) {
  auto root = MenuBuilder("r").item("leaf").build();
  MenuCursor cursor(*root);
  EXPECT_FALSE(cursor.enter());
  EXPECT_EQ(cursor.depth(), 0u);
}

TEST(MenuCursor, BackAtRootFails) {
  auto root = MenuBuilder("r").item("leaf").build();
  MenuCursor cursor(*root);
  EXPECT_FALSE(cursor.back());
}

TEST(MenuCursor, ResetReturnsToRootTop) {
  auto root = MenuBuilder("r").submenu("s").item("x").end().build();
  MenuCursor cursor(*root);
  cursor.enter();
  cursor.reset();
  EXPECT_EQ(cursor.depth(), 0u);
  EXPECT_EQ(cursor.index(), 0u);
}

TEST(MenuBuilder, NestedStructure) {
  auto root = MenuBuilder("r")
                  .submenu("a")
                  .submenu("a1")
                  .item("a1x")
                  .end()
                  .item("a2")
                  .end()
                  .item("b")
                  .build();
  EXPECT_EQ(root->child_count(), 2u);
  EXPECT_EQ(root->child(0).child(0).child(0).label(), "a1x");
  EXPECT_EQ(root->child(0).child(1).label(), "a2");
  EXPECT_TRUE(root->child(1).is_leaf());
}

TEST(MenuBuilder, ExtraEndIsSafe) {
  auto root = MenuBuilder("r").item("x").end().end().build();
  EXPECT_EQ(root->child_count(), 1u);
}

TEST(FlatMenu, HasRequestedSizeAndLabels) {
  auto root = make_flat_menu(42);
  EXPECT_EQ(root->child_count(), 42u);
  EXPECT_EQ(root->child(0).label(), "Item 001");
  EXPECT_EQ(root->child(41).label(), "Item 042");
  for (std::size_t i = 0; i < 42; ++i) EXPECT_TRUE(root->child(i).is_leaf());
}

TEST(PhoneMenu, MatchesPaperStructure) {
  auto root = make_phone_menu();
  EXPECT_GE(root->child_count(), 6u);
  EXPECT_EQ(root->child(0).label(), "Messages");
  EXPECT_GE(max_depth(*root), 2u);  // Settings has nested submenus
  EXPECT_GE(count_nodes(*root), 30u);
}

TEST(PhoneMenu, NavigableToNestedLeaf) {
  auto root = make_phone_menu();
  MenuCursor cursor(*root);
  cursor.move_to(3);  // Settings
  ASSERT_EQ(cursor.highlighted().label(), "Settings");
  ASSERT_TRUE(cursor.enter());
  cursor.move_to(1);  // Display
  ASSERT_EQ(cursor.highlighted().label(), "Display");
  ASSERT_TRUE(cursor.enter());
  cursor.move_to(1);
  EXPECT_EQ(cursor.highlighted().label(), "Contrast");
  EXPECT_TRUE(cursor.highlighted().is_leaf());
}

// --- properties over random menus -----------------------------------------------

class RandomMenuProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomMenuProperty, CursorWalkNeverEscapesTree) {
  sim::Rng rng(GetParam());
  auto root = make_random_menu(rng, 2, 6, 4);
  MenuCursor cursor(*root);
  sim::Rng walk = rng.fork(1);
  std::size_t max_depth_seen = 0;
  for (int step = 0; step < 500; ++step) {
    switch (walk.uniform_int(0, 3)) {
      case 0:
        cursor.move_to(static_cast<std::size_t>(walk.uniform_int(0, 10)));
        break;
      case 1:
        cursor.move_by(walk.uniform_int(-3, 3));
        break;
      case 2:
        cursor.enter();
        break;
      case 3:
        cursor.back();
        break;
    }
    ASSERT_LT(cursor.index(), cursor.level_size());
    ASSERT_GE(cursor.level_size(), 1u);
    max_depth_seen = std::max(max_depth_seen, cursor.depth());
    ASSERT_LE(cursor.depth(), max_depth(*root));
  }
  // The walk should actually have descended somewhere.
  EXPECT_GE(max_depth_seen, 1u);
}

TEST_P(RandomMenuProperty, EnterBackIsIdentity) {
  sim::Rng rng(GetParam() + 1000);
  auto root = make_random_menu(rng, 2, 5, 3);
  MenuCursor cursor(*root);
  sim::Rng walk = rng.fork(2);
  for (int step = 0; step < 100; ++step) {
    cursor.move_to(static_cast<std::size_t>(walk.uniform_int(0, 6)));
    const std::size_t index = cursor.index();
    const std::size_t depth = cursor.depth();
    if (cursor.enter()) {
      ASSERT_TRUE(cursor.back());
      // back() restores the cursor onto the submenu entered from.
      EXPECT_EQ(cursor.index(), index);
      EXPECT_EQ(cursor.depth(), depth);
    }
  }
}

// Seed 3 was replaced with 9 when the Rng engine moved to xoshiro256++:
// its new stream happens to build a menu the 500-step walk never
// descends into, which trips the anti-vacuity check below.
INSTANTIATE_TEST_SUITE_P(Seeds, RandomMenuProperty, ::testing::Values(1, 2, 9, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace distscroll::menu
