// Typed tests for the strand-processing semantics (detect/history.hpp):
// identical behaviour is required from the interval treap and the granule
// map, and from the address-sharded composition (pint/sharded_history.hpp).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "detect/granule_map.hpp"
#include "detect/history.hpp"
#include "pint/sharded_history.hpp"
#include "store/interval_store.hpp"

using namespace pint;
using detect::Strand;

namespace {

/// Harness: builds labelled strands on a real reachability engine.
struct HistoryFixture {
  reach::Engine reach;
  detect::RaceReporter rep;
  detect::Stats stats;
  std::vector<std::unique_ptr<Strand>> strands;

  Strand* strand(const reach::Engine::Label& l) {
    auto s = std::make_unique<Strand>();
    s->reset(std::uint64_t(strands.size()) + 1);
    s->label = l;
    strands.push_back(std::move(s));
    return strands.back().get();
  }

  /// root -> spawn: returns (child, cont, sync) strands.
  struct Trio {
    Strand* child;
    Strand* cont;
    Strand* sync;
  };
  Trio spawn_from(Strand* u) {
    Strand* j = strand({});
    auto labels = reach.on_spawn(u->label, &j->label);
    return {strand(labels.child), strand(labels.cont), j};
  }
  Strand* root() { return strand(reach.root_label()); }
};

void add_read(Strand* s, std::uint64_t lo, std::uint64_t hi) {
  s->active().reads.add(lo, hi);
}
void add_write(Strand* s, std::uint64_t lo, std::uint64_t hi) {
  s->active().writes.add(lo, hi);
}

}  // namespace

/// The two stores of one history kind: last writer and two-sided reader.
struct TreapStores {
  using Writer = store::IntervalStore;
  using Reader = store::ReaderStore;
};
struct MapStores {
  using Writer = detect::GranuleMap;
  using Reader = detect::ReaderGranuleMap;
};

template <class Stores>
class HistoryStore : public ::testing::Test {
 public:
  typename Stores::Writer writer_store;
  typename Stores::Reader reader_store;
  HistoryFixture fx;

  void process(Strand* s) {
    detect::process_writer_treap(writer_store, *s, fx.reach, fx.rep, fx.stats);
    detect::process_reader_treap(reader_store, *s, fx.reach, fx.rep, fx.stats);
  }

  /// The one distinct race reported so far must be `prev` read vs `cur`
  /// write: it names which retained reader caught it.
  void expect_only_race(const Strand* prev, const Strand* cur) {
    ASSERT_EQ(fx.rep.distinct_races(), 1u);
    const auto recs = fx.rep.records();
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].prev_sid, prev->sid);
    EXPECT_FALSE(recs[0].prev_write);
    EXPECT_EQ(recs[0].cur_sid, cur->sid);
    EXPECT_TRUE(recs[0].cur_write);
  }
};

using StoreKinds = ::testing::Types<TreapStores, MapStores>;
TYPED_TEST_SUITE(HistoryStore, StoreKinds);

TYPED_TEST(HistoryStore, ParallelWriteWriteRaces) {
  auto& fx = this->fx;
  Strand* u = fx.root();
  auto t = fx.spawn_from(u);
  add_write(t.child, 0, 63);
  add_write(t.cont, 32, 95);
  this->process(t.child);
  this->process(t.cont);
  EXPECT_TRUE(fx.rep.any());
}

TYPED_TEST(HistoryStore, SeriesWriteWriteClean) {
  auto& fx = this->fx;
  Strand* u = fx.root();
  auto t = fx.spawn_from(u);
  add_write(t.child, 0, 63);
  add_write(t.sync, 0, 63);  // sync node: in series with the child
  this->process(t.child);
  this->process(t.sync);
  EXPECT_FALSE(fx.rep.any());
}

TYPED_TEST(HistoryStore, ParallelReadReadClean) {
  auto& fx = this->fx;
  Strand* u = fx.root();
  auto t = fx.spawn_from(u);
  add_read(t.child, 0, 63);
  add_read(t.cont, 0, 63);
  this->process(t.child);
  this->process(t.cont);
  EXPECT_FALSE(fx.rep.any());
}

TYPED_TEST(HistoryStore, ReadThenParallelWriteRaces) {
  auto& fx = this->fx;
  Strand* u = fx.root();
  auto t = fx.spawn_from(u);
  add_read(t.child, 16, 23);
  add_write(t.cont, 16, 23);
  this->process(t.child);
  this->process(t.cont);
  EXPECT_TRUE(fx.rep.any());
}

TYPED_TEST(HistoryStore, WriteThenParallelReadRaces) {
  auto& fx = this->fx;
  Strand* u = fx.root();
  auto t = fx.spawn_from(u);
  add_write(t.child, 16, 23);
  add_read(t.cont, 16, 23);
  this->process(t.child);
  this->process(t.cont);
  EXPECT_TRUE(fx.rep.any());
}

TYPED_TEST(HistoryStore, ClearsBreakHistory) {
  auto& fx = this->fx;
  Strand* u = fx.root();
  auto t = fx.spawn_from(u);
  add_write(t.child, 0, 63);
  t.child->clears.push_back({0, 63});  // e.g. its stack frame dies
  add_write(t.cont, 0, 63);            // parallel, but history was cleared
  this->process(t.child);
  this->process(t.cont);
  EXPECT_FALSE(fx.rep.any());
}

TYPED_TEST(HistoryStore, DeferredFreeRangeCleared) {
  auto& fx = this->fx;
  Strand* u = fx.root();
  auto t = fx.spawn_from(u);
  add_write(t.child, 100, 163);
  t.child->frees.push_back({nullptr, 100, 163});
  add_write(t.cont, 100, 163);
  this->process(t.child);
  this->process(t.cont);
  EXPECT_FALSE(fx.rep.any());
}

TYPED_TEST(HistoryStore, LeftmostRightmostCatchMiddleWriter) {
  // Three parallel readers; a later writer parallel to all of them must be
  // caught through the two retained extremes.
  auto& fx = this->fx;
  Strand* u = fx.root();
  auto b = fx.spawn_from(u);
  auto b2 = fx.spawn_from(b.cont);   // same block: second spawn
  auto b3 = fx.spawn_from(b2.cont);  // third spawn
  add_read(b.child, 0, 7);
  add_read(b2.child, 0, 7);
  add_read(b3.child, 0, 7);
  add_write(b3.cont, 0, 7);  // parallel with all three readers
  this->process(b.child);
  this->process(b2.child);
  this->process(b3.child);
  this->process(b3.cont);
  EXPECT_TRUE(fx.rep.any());
}

TYPED_TEST(HistoryStore, OnlyRightmostReaderIsParallelToWriter) {
  // Inside P = b.child: spawn A, sync, then W writes.  B = b.cont reads in
  // parallel with all of P.  A is left of B, so the left slot keeps A and
  // the right slot takes B; A precedes W, so only the right slot races.
  auto& fx = this->fx;
  Strand* u = fx.root();
  auto b = fx.spawn_from(u);
  auto p = fx.spawn_from(b.child);
  Strand* a = p.child;
  Strand* w = p.sync;
  Strand* r = b.cont;
  add_read(a, 0, 7);
  add_read(r, 0, 7);
  add_write(w, 0, 7);
  this->process(a);
  this->process(r);
  this->process(w);
  this->expect_only_race(r, w);
}

TYPED_TEST(HistoryStore, OnlyLeftmostReaderIsParallelToWriter) {
  // The mirror: B = b.child reads; inside b.cont spawn A, sync, then W
  // writes.  B is left of A, so the left slot keeps B and the right slot
  // takes A; A precedes W, so only the left slot races.
  auto& fx = this->fx;
  Strand* u = fx.root();
  auto b = fx.spawn_from(u);
  auto c = fx.spawn_from(b.cont);
  Strand* l = b.child;
  Strand* a = c.child;
  Strand* w = c.sync;
  add_read(l, 0, 7);
  add_read(a, 0, 7);
  add_write(w, 0, 7);
  this->process(l);
  this->process(a);
  this->process(w);
  this->expect_only_race(l, w);
}

TYPED_TEST(HistoryStore, ReaderBetweenTheExtremesLeavesBothSlots) {
  // Inside X = b.child: spawn A, then the continuation B reads, sync, W
  // writes; C = b.cont reads.  English order A < B < C.  B arrives after A
  // and C and is neither slot's extreme, so the pair stays (A, C): each
  // slot is judged by its own relation to B.  W follows A and B but not C,
  // so only the right slot's C races.
  auto& fx = this->fx;
  Strand* u = fx.root();
  auto b = fx.spawn_from(u);
  auto x = fx.spawn_from(b.child);
  Strand* a = x.child;
  Strand* mid = x.cont;
  Strand* w = x.sync;
  Strand* c = b.cont;
  add_read(a, 0, 7);
  add_read(c, 0, 7);
  add_read(mid, 0, 7);
  add_write(w, 0, 7);
  this->process(a);
  this->process(c);
  this->process(mid);
  this->process(w);
  this->expect_only_race(c, w);
}

TYPED_TEST(HistoryStore, OneReaderStrandCostsOneReachQuery) {
  // A segment whose two slots hold the same strand is checked once.
  auto& fx = this->fx;
  Strand* u = fx.root();
  auto b = fx.spawn_from(u);
  add_read(b.child, 0, 7);
  add_write(b.cont, 0, 7);
  this->process(b.child);
  detect::process_writer_treap(this->writer_store, *b.cont, fx.reach, fx.rep,
                               fx.stats);
  const std::uint64_t before = fx.stats.reach_queries.load();
  detect::process_reader_treap(this->reader_store, *b.cont, fx.reach, fx.rep,
                               fx.stats);
  EXPECT_EQ(fx.stats.reach_queries.load() - before, 1u);
  this->expect_only_race(b.child, b.cont);
}

TYPED_TEST(HistoryStore, SerialReaderAfterParallelSetReplaces) {
  auto& fx = this->fx;
  Strand* u = fx.root();
  auto b = fx.spawn_from(u);
  add_read(b.child, 0, 7);
  add_read(b.cont, 0, 7);
  add_read(b.sync, 0, 7);   // in series after both readers: replaces them
  add_write(b.sync, 0, 7);  // same strand writing is fine
  this->process(b.child);
  this->process(b.cont);
  this->process(b.sync);
  EXPECT_FALSE(fx.rep.any());
}

// ---------------------------------------------------------------------------
// Sharded composition equivalence
// ---------------------------------------------------------------------------

TEST(ShardedHistory, PieceDecompositionCoversExactly) {
  // The shard pieces of [lo, hi] across all shards must partition it.
  const std::uint64_t lo = 3 * pintd::kShardStripeBytes - 17;
  const std::uint64_t hi = 7 * pintd::kShardStripeBytes + 123;
  for (int n : {1, 2, 3, 4, 8}) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> pieces;
    for (int k = 0; k < n; ++k) {
      pintd::for_shard_pieces(lo, hi, k, n, [&](std::uint64_t a, std::uint64_t b) {
        pieces.push_back({a, b});
      });
    }
    std::sort(pieces.begin(), pieces.end());
    ASSERT_FALSE(pieces.empty());
    EXPECT_EQ(pieces.front().first, lo);
    EXPECT_EQ(pieces.back().second, hi);
    for (std::size_t i = 1; i < pieces.size(); ++i) {
      EXPECT_EQ(pieces[i].first, pieces[i - 1].second + 1) << "n=" << n;
    }
  }
}

TEST(ShardedHistory, MatchesRoleWorkersOnScriptedStrands) {
  // Apply the same strand sequence to (a) the two role stores and (b) 3
  // shards; both must reach the same any-race verdict on a spread of
  // scripted conflict patterns.
  for (int variant = 0; variant < 6; ++variant) {
    HistoryFixture fx_a, fx_b;
    store::IntervalStore w;
    store::ReaderStore r;
    pintd::HistoryShard s0, s1, s2;
    pintd::HistoryShard* shards[3] = {&s0, &s1, &s2};

    auto drive = [&](HistoryFixture& fx, auto&& apply) {
      Strand* u = fx.root();
      auto b = fx.spawn_from(u);
      const std::uint64_t base = pintd::kShardStripeBytes;  // cross stripes
      const std::uint64_t span = 3 * pintd::kShardStripeBytes;
      switch (variant) {
        case 0:  // overlapping parallel writes across stripes
          add_write(b.child, base, base + span);
          add_write(b.cont, base + span / 2, base + span + span / 2);
          break;
        case 1:  // disjoint parallel writes
          add_write(b.child, base, base + span);
          add_write(b.cont, base + 2 * span, base + 3 * span);
          break;
        case 2:  // read vs parallel write, small overlap at a stripe edge
          add_read(b.child, base, 2 * base - 1);
          add_write(b.cont, 2 * base - 8, 2 * base + 8);
          break;
        case 3:  // series through the sync node
          add_write(b.child, base, base + span);
          add_write(b.sync, base, base + span);
          break;
        case 4:  // clears break the history
          add_write(b.child, base, base + span);
          b.child->clears.push_back({base, base + span});
          add_write(b.cont, base, base + span);
          break;
        default:  // parallel read-read
          add_read(b.child, base, base + span);
          add_read(b.cont, base, base + span);
          break;
      }
      apply(fx, b.child);
      apply(fx, b.cont);
      apply(fx, b.sync);
    };

    drive(fx_a, [&](HistoryFixture& fx, Strand* s) {
      detect::process_writer_treap(w, *s, fx.reach, fx.rep, fx.stats);
      detect::process_reader_treap(r, *s, fx.reach, fx.rep, fx.stats);
    });
    drive(fx_b, [&](HistoryFixture& fx, Strand* s) {
      for (int k = 0; k < 3; ++k) {
        shards[k]->process(*s, k, 3, fx.reach, fx.rep, fx.stats);
      }
    });
    EXPECT_EQ(fx_a.rep.any(), fx_b.rep.any()) << "variant=" << variant;
  }
}
