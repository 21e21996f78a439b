// Tests for DePa reachability: hand-built scenarios plus a property test
// against a transitive-closure oracle on random series-parallel DAGs.

#include <gtest/gtest.h>

#include "common.hpp"
#include "reach/depa.hpp"

using namespace pint;
using reach::Engine;
using Label = reach::Engine::Label;

TEST(Reach, SpawnMakesChildAndContinuationParallel) {
  Engine e;
  Label u = e.root_label();
  Label sync;
  auto s = e.on_spawn(u, &sync);
  EXPECT_TRUE(e.precedes(u, s.child));
  EXPECT_TRUE(e.precedes(u, s.cont));
  EXPECT_TRUE(e.parallel(s.child, s.cont));
  EXPECT_FALSE(e.precedes(s.child, s.cont));
  EXPECT_FALSE(e.precedes(s.cont, s.child));
}

TEST(Reach, SyncNodeInSeriesWithWholeBlock) {
  Engine e;
  Label u = e.root_label();
  Label sync;
  auto s1 = e.on_spawn(u, &sync);
  auto s2 = e.on_spawn(s1.cont, &sync);  // second spawn, same block
  // Both children and both continuations precede the sync node.
  EXPECT_TRUE(e.precedes(s1.child, sync));
  EXPECT_TRUE(e.precedes(s2.child, sync));
  EXPECT_TRUE(e.precedes(s1.cont, sync));
  EXPECT_TRUE(e.precedes(s2.cont, sync));
  // The two children are parallel siblings.
  EXPECT_TRUE(e.parallel(s1.child, s2.child));
  // First child is left of second child.
  EXPECT_TRUE(e.left_of(s1.child, s2.child));
  EXPECT_FALSE(e.left_of(s2.child, s1.child));
  // Continuation 1 precedes child 2 (spawned later in program order).
  EXPECT_TRUE(e.precedes(s1.cont, s2.child));
}

TEST(Reach, NestedSpawnRegionsAreParallel) {
  Engine e;
  Label u = e.root_label();
  Label outer_sync;
  auto s1 = e.on_spawn(u, &outer_sync);
  // The child spawns its own subtree.
  Label inner_sync;
  auto c1 = e.on_spawn(s1.child, &inner_sync);
  // Everything in the child's subtree is parallel to the continuation.
  EXPECT_TRUE(e.parallel(c1.child, s1.cont));
  EXPECT_TRUE(e.parallel(c1.cont, s1.cont));
  EXPECT_TRUE(e.parallel(inner_sync, s1.cont));
  // ...but in series with the outer sync.
  EXPECT_TRUE(e.precedes(c1.child, outer_sync));
  EXPECT_TRUE(e.precedes(inner_sync, outer_sync));
}

TEST(Reach, SequentialBlocksAreInSeries) {
  Engine e;
  Label u = e.root_label();
  Label sync1;
  auto s1 = e.on_spawn(u, &sync1);
  // After the first block's sync, a second block begins at sync1.
  Label sync2;
  auto s2 = e.on_spawn(sync1, &sync2);
  EXPECT_TRUE(e.precedes(s1.child, s2.child));
  EXPECT_TRUE(e.precedes(s1.cont, s2.cont));
  EXPECT_TRUE(e.precedes(sync1, sync2));
}

// ---------------------------------------------------------------------------
// Property test: random SP tree vs transitive-closure oracle.
// ---------------------------------------------------------------------------

TEST(Reach, PropertyMatchesTransitiveClosure) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    test::SpDagBuilder b(seed);
    b.build(4);
    const std::size_t n = b.labels.size();
    ASSERT_GE(n, 2u);
    const auto reach = b.closure();
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        EXPECT_EQ(b.e.precedes(b.labels[i], b.labels[j]), bool(reach[i][j]))
            << "seed=" << seed << " i=" << i << " j=" << j;
      }
    }
  }
}
