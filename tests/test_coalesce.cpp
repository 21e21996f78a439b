// Tests for the runtime access coalescer (AccessBuffer).

#include <gtest/gtest.h>

#include "detect/types.hpp"
#include "support/rng.hpp"

using namespace pint::detect;

TEST(Coalesce, AdjacentAccessesMerge) {
  AccessBuffer b;
  b.add(0, 7);
  b.add(8, 15);
  b.add(16, 23);
  EXPECT_EQ(b.items().size(), 1u);
  EXPECT_EQ(b.items()[0], (Interval{0, 23}));
}

TEST(Coalesce, OverlappingAccessesMerge) {
  AccessBuffer b;
  b.add(0, 10);
  b.add(5, 20);
  EXPECT_EQ(b.items().size(), 1u);
  EXPECT_EQ(b.items()[0], (Interval{0, 20}));
}

TEST(Coalesce, GapCreatesNewInterval) {
  AccessBuffer b;
  b.add(0, 7);
  b.add(100, 107);
  EXPECT_EQ(b.items().size(), 2u);
}

TEST(Coalesce, InterleavedStreamsMergeViaMultiTail) {
  // The B[k][j] / C[i][j] pattern: two (or three) streams alternating.
  AccessBuffer b;
  for (std::uint64_t j = 0; j < 100; ++j) {
    b.add(1000 + j * 8, 1000 + j * 8 + 7);    // stream 1
    b.add(50000 + j * 8, 50000 + j * 8 + 7);  // stream 2
    b.add(90000 + j * 8, 90000 + j * 8 + 7);  // stream 3
  }
  EXPECT_EQ(b.items().size(), 3u);
}

TEST(Coalesce, TooManyStreamsFallBackToFinalize) {
  AccessBuffer b;
  // kTails + 2 interleaved streams: the fast path cannot hold them all...
  constexpr std::uint64_t kStreams = AccessBuffer::kTails + 2;
  for (std::uint64_t j = 0; j < 50; ++j) {
    for (std::uint64_t s = 0; s < kStreams; ++s) {
      b.add(s * 100000 + j * 8, s * 100000 + j * 8 + 7);
    }
  }
  EXPECT_GT(b.items().size(), kStreams);
  // ...but finalize() sort-merges them down to exactly kStreams intervals.
  b.finalize();
  EXPECT_EQ(b.items().size(), kStreams);
}

TEST(Coalesce, MergeAtExtendsOnlyAnExactStart) {
  AccessBuffer b;
  b.add(0, 7);
  b.add(100, 107);
  EXPECT_TRUE(b.merge_at(0, 0, 31));     // same start: extended in place
  EXPECT_TRUE(b.merge_at(1, 100, 103));  // already covered: unchanged
  EXPECT_FALSE(b.merge_at(1, 104, 111));  // overlaps, but starts elsewhere
  EXPECT_FALSE(b.merge_at(2, 100, 111));  // out of range
  ASSERT_EQ(b.items().size(), 2u);
  EXPECT_EQ(b.items()[0], (Interval{0, 31}));
  EXPECT_EQ(b.items()[1], (Interval{100, 107}));
  // A merge is an absorbed add; the misses are the two appends.
  EXPECT_EQ(b.tail_hits(), 2u);
  EXPECT_EQ(b.tail_misses(), 2u);
}

TEST(Coalesce, FinalizeSortsAndMerges) {
  AccessBuffer b;
  b.add(100, 109);
  b.add(0, 9);
  b.add(10, 19);   // adjacent to [0,9] but not to the tail [100,109]... kTails=4 reaches it
  b.add(50, 59);
  b.finalize();
  ASSERT_EQ(b.items().size(), 3u);
  EXPECT_EQ(b.items()[0], (Interval{0, 19}));
  EXPECT_EQ(b.items()[1], (Interval{50, 59}));
  EXPECT_EQ(b.items()[2], (Interval{100, 109}));
}

TEST(Coalesce, FinalizeWithoutCoalescingKeepsRawRecords) {
  AccessBuffer b;
  b.add(0, 7);
  b.add(100, 107);
  b.add(200, 207);
  b.finalize(/*coalesce=*/false);
  EXPECT_EQ(b.items().size(), 3u);
}

TEST(Coalesce, ClearEmpties) {
  AccessBuffer b;
  b.add(0, 7);
  b.clear();
  EXPECT_TRUE(b.empty());
  b.add(1, 2);
  EXPECT_EQ(b.items().size(), 1u);
}

TEST(Coalesce, PropertyCoverageEqualsUnion) {
  // Whatever the fast path does, after finalize() the set of covered bytes
  // must equal the union of all recorded accesses.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    pint::Xoshiro256 rng(seed);
    AccessBuffer b;
    std::vector<char> covered(4096, 0);
    for (int i = 0; i < 500; ++i) {
      const std::uint64_t lo = rng.next_below(4000);
      const std::uint64_t hi = lo + rng.next_below(64);
      b.add(lo, hi);
      for (auto x = lo; x <= hi && x < covered.size(); ++x) covered[x] = 1;
    }
    b.finalize();
    // Disjoint, sorted, and exactly covering.
    std::vector<char> got(4096, 0);
    std::uint64_t prev_hi = 0;
    bool first = true;
    for (const Interval& iv : b.items()) {
      if (!first) {
        EXPECT_GT(iv.lo, prev_hi + 1) << "not maximally merged";
      }
      first = false;
      prev_hi = iv.hi;
      for (auto x = iv.lo; x <= iv.hi && x < got.size(); ++x) got[x] = 1;
    }
    EXPECT_EQ(covered, got) << "seed=" << seed;
  }
}
