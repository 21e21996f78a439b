// Unit tests for the per-granule hashmap access history (the ablation
// backend), including equivalence with the interval treap at granule
// resolution.

#include <gtest/gtest.h>

#include <map>

#include "detect/granule_map.hpp"
#include "support/rng.hpp"
#include "table_compaction.hpp"

using namespace pint;
using detect::GranuleMap;
using store::Accessor;
using store::Handle;

namespace {
Accessor acc(std::uint64_t sid) { return {{}, sid}; }
constexpr std::uint64_t G = GranuleMap::kGranuleBytes;
auto noop = [](auto, auto, Handle) {};
}  // namespace

TEST(GranuleMap, WriterInsertAndQuery) {
  GranuleMap m;
  m.insert_writer(0, 3 * G - 1, m.intern(acc(1)), noop);
  int hits = 0;
  m.query(0, 3 * G - 1, [&](std::uint64_t, std::uint64_t, Handle h) {
    EXPECT_EQ(m.table()[h].sid, 1u);
    ++hits;
  });
  EXPECT_EQ(hits, 3);
  EXPECT_EQ(m.size(), 3u);
}

TEST(GranuleMap, WriterOverwriteReportsPrevious) {
  GranuleMap m;
  m.insert_writer(0, G - 1, m.intern(acc(1)), noop);
  std::uint64_t prev = 0;
  m.insert_writer(0, G - 1, m.intern(acc(2)),
                  [&](std::uint64_t, std::uint64_t, Handle h) {
                    prev = m.table()[h].sid;
                  });
  EXPECT_EQ(prev, 1u);
  std::uint64_t now = 0;
  m.query(0, G - 1, [&](std::uint64_t, std::uint64_t, Handle h) {
    now = m.table()[h].sid;
  });
  EXPECT_EQ(now, 2u);
}

TEST(GranuleMap, SubGranuleAccessesAlias) {
  GranuleMap m;
  m.insert_writer(0, 0, m.intern(acc(1)), noop);
  bool overlap = false;
  m.insert_writer(1, 1, m.intern(acc(2)),
                  [&](std::uint64_t, std::uint64_t, Handle) {
                    overlap = true;  // same 8-byte granule
                  });
  EXPECT_TRUE(overlap);
}

TEST(GranuleMap, ReaderResolveControlsWinner) {
  GranuleMap m;
  m.insert_reader(0, G - 1, m.intern(acc(1)), [](Handle, Handle a) {
    return a;
  });
  m.insert_reader(0, G - 1, m.intern(acc(2)), [](Handle p, Handle) {
    return p;
  });
  std::uint64_t got = 0;
  auto read = [&](std::uint64_t, std::uint64_t, Handle h) {
    got = m.table()[h].sid;
  };
  m.query(0, G - 1, read);
  EXPECT_EQ(got, 1u);
  m.insert_reader(0, G - 1, m.intern(acc(3)), [](Handle, Handle a) {
    return a;
  });
  m.query(0, G - 1, read);
  EXPECT_EQ(got, 3u);
}

TEST(GranuleMap, EraseRangeRemovesCoverage) {
  GranuleMap m;
  m.insert_writer(0, 10 * G - 1, m.intern(acc(1)), noop);
  m.erase_range(2 * G, 5 * G - 1);
  int hits = 0;
  m.query(0, 10 * G - 1, [&](auto, auto, const auto&) { ++hits; });
  EXPECT_EQ(hits, 7);
}

TEST(GranuleMap, TombstoneSlotsAreReusable) {
  GranuleMap m;
  for (int round = 0; round < 50; ++round) {
    m.insert_writer(0, 64 * G - 1, m.intern(acc(std::uint64_t(round) + 1)),
                    noop);
    m.erase_range(0, 64 * G - 1);
  }
  EXPECT_EQ(m.size(), 0u);
  m.insert_writer(0, G - 1, m.intern(acc(7)), noop);
  EXPECT_EQ(m.size(), 1u);
}

TEST(GranuleMap, TinyCapacitiesAreRoundedUpToTheMinimum) {
  // Regression: capacity 0 used to underflow the mask to all-ones over an
  // empty slot table, so the very first probe walked out of bounds.
  for (const std::size_t cap : {std::size_t(0), std::size_t(1),
                                std::size_t(2), std::size_t(8)}) {
    GranuleMap m(cap);
    EXPECT_GE(m.capacity(), GranuleMap::kMinCapacity) << "cap=" << cap;
    m.insert_writer(0, 4 * G - 1, m.intern(acc(3)), noop);
    std::uint64_t hits = 0;
    m.query(0, 4 * G - 1, [&](auto, auto, Handle h) {
      EXPECT_EQ(m.table()[h].sid, 3u);
      ++hits;
    });
    EXPECT_EQ(hits, 4u) << "cap=" << cap;
  }
}

TEST(GranuleMap, GrowsPastInitialCapacity) {
  GranuleMap m(16);
  constexpr std::uint64_t kN = 4096;
  m.insert_writer(0, kN * G - 1, m.intern(acc(9)), noop);
  EXPECT_EQ(m.size(), kN);
  EXPECT_GE(m.capacity(), kN);
  std::uint64_t hits = 0;
  m.query(0, kN * G - 1, [&](auto, auto, Handle h) {
    EXPECT_EQ(m.table()[h].sid, 9u);
    ++hits;
  });
  EXPECT_EQ(hits, kN);
}

TEST(GranuleMap, PropertyMatchesReferenceMap) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    pint::Xoshiro256 rng(seed);
    GranuleMap m(64);
    std::map<std::uint64_t, std::uint64_t> ref;  // granule -> sid
    constexpr std::uint64_t kSpanGranules = 512;
    for (int op = 0; op < 4000; ++op) {
      const std::uint64_t glo = rng.next_below(kSpanGranules);
      const std::uint64_t ghi = glo + rng.next_below(8);
      const std::uint64_t lo = glo * G, hi = ghi * G + G - 1;
      if (rng.next_below(5) == 0) {
        m.erase_range(lo, hi);
        ref.erase(ref.lower_bound(glo), ref.upper_bound(ghi));
      } else {
        const std::uint64_t sid = 1 + rng.next_below(100);
        m.insert_writer(lo, hi, m.intern(acc(sid)), noop);
        for (auto g = glo; g <= ghi; ++g) ref[g] = sid;
      }
    }
    for (std::uint64_t g = 0; g < kSpanGranules + 8; ++g) {
      std::uint64_t got = 0;
      m.query(g * G, g * G + G - 1,
              [&](auto, auto, Handle h) { got = m.table()[h].sid; });
      const auto it = ref.find(g);
      ASSERT_EQ(got, it == ref.end() ? 0 : it->second)
          << "seed=" << seed << " granule=" << g;
    }
    ASSERT_EQ(m.size(), ref.size()) << "seed=" << seed;
  }
}

TEST(GranuleMap, CompactionBoundsTheTableAndKeepsTheContents) {
  // The store test's twin: 10,000 strands over 8 granules.
  GranuleMap writer;
  detect::ReaderGranuleMap reader;
  EXPECT_GE(test::drive_compaction(writer, 10000, 8 * G, G), 2u);
  EXPECT_GE(test::drive_compaction(reader, 10000, 8 * G, G), 2u);
}
