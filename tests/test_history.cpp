// Tests for the strand-processing semantics (detect/history.hpp), applied
// through the history driver (detect/history_driver.hpp): identical
// behaviour is required from every schedule the driver serves - role
// lanes, both roles at once, and the address-sharded stripes.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

#include "detect/history_driver.hpp"
#include "store/interval_store.hpp"
#include "support/rng.hpp"

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

class HistoryStore : public ::testing::Test {
 public:
  HistoryFixture fx;
  detect::HistoryDriver<store::ReaderPair> history{
      0, detect::Schedule::kPhased, fx.reach, fx.rep, fx.stats};

  void process(Strand* s) { history.apply(*s, detect::kBothRoles, 0); }

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

TEST_F(HistoryStore, ParallelWriteWriteRaces) {
  Strand* u = fx.root();
  auto t = fx.spawn_from(u);
  add_write(t.child, 0, 63);
  add_write(t.cont, 32, 95);
  process(t.child);
  process(t.cont);
  EXPECT_TRUE(fx.rep.any());
}

TEST_F(HistoryStore, SeriesWriteWriteClean) {
  Strand* u = fx.root();
  auto t = fx.spawn_from(u);
  add_write(t.child, 0, 63);
  add_write(t.sync, 0, 63);  // sync node: in series with the child
  process(t.child);
  process(t.sync);
  EXPECT_FALSE(fx.rep.any());
}

TEST_F(HistoryStore, ParallelReadReadClean) {
  Strand* u = fx.root();
  auto t = fx.spawn_from(u);
  add_read(t.child, 0, 63);
  add_read(t.cont, 0, 63);
  process(t.child);
  process(t.cont);
  EXPECT_FALSE(fx.rep.any());
}

TEST_F(HistoryStore, ReadThenParallelWriteRaces) {
  Strand* u = fx.root();
  auto t = fx.spawn_from(u);
  add_read(t.child, 16, 23);
  add_write(t.cont, 16, 23);
  process(t.child);
  process(t.cont);
  EXPECT_TRUE(fx.rep.any());
}

TEST_F(HistoryStore, WriteThenParallelReadRaces) {
  Strand* u = fx.root();
  auto t = fx.spawn_from(u);
  add_write(t.child, 16, 23);
  add_read(t.cont, 16, 23);
  process(t.child);
  process(t.cont);
  EXPECT_TRUE(fx.rep.any());
}

TEST_F(HistoryStore, ClearsBreakHistory) {
  Strand* u = fx.root();
  auto t = fx.spawn_from(u);
  add_write(t.child, 0, 63);
  t.child->clears.push_back({0, 63});  // e.g. its stack frame dies
  add_write(t.cont, 0, 63);            // parallel, but history was cleared
  process(t.child);
  process(t.cont);
  EXPECT_FALSE(fx.rep.any());
}

TEST_F(HistoryStore, DeferredFreeRangeCleared) {
  Strand* u = fx.root();
  auto t = fx.spawn_from(u);
  add_write(t.child, 100, 163);
  t.child->frees.push_back({nullptr, 100, 163});
  add_write(t.cont, 100, 163);
  process(t.child);
  process(t.cont);
  EXPECT_FALSE(fx.rep.any());
}

TEST_F(HistoryStore, LeftmostRightmostCatchMiddleWriter) {
  // Three parallel readers; a later writer parallel to all of them must be
  // caught through the two retained extremes.
  Strand* u = fx.root();
  auto b = fx.spawn_from(u);
  auto b2 = fx.spawn_from(b.cont);   // same block: second spawn
  auto b3 = fx.spawn_from(b2.cont);  // third spawn
  add_read(b.child, 0, 7);
  add_read(b2.child, 0, 7);
  add_read(b3.child, 0, 7);
  add_write(b3.cont, 0, 7);  // parallel with all three readers
  process(b.child);
  process(b2.child);
  process(b3.child);
  process(b3.cont);
  EXPECT_TRUE(fx.rep.any());
}

TEST_F(HistoryStore, OnlyRightmostReaderIsParallelToWriter) {
  // Inside P = b.child: spawn A, sync, then W writes.  B = b.cont reads in
  // parallel with all of P.  A is left of B, so the left slot keeps A and
  // the right slot takes B; A precedes W, so only the right slot races.
  Strand* u = fx.root();
  auto b = fx.spawn_from(u);
  auto p = fx.spawn_from(b.child);
  Strand* a = p.child;
  Strand* w = p.sync;
  Strand* r = b.cont;
  add_read(a, 0, 7);
  add_read(r, 0, 7);
  add_write(w, 0, 7);
  process(a);
  process(r);
  process(w);
  expect_only_race(r, w);
}

TEST_F(HistoryStore, OnlyLeftmostReaderIsParallelToWriter) {
  // The mirror: B = b.child reads; inside b.cont spawn A, sync, then W
  // writes.  B is left of A, so the left slot keeps B and the right slot
  // takes A; A precedes W, so only the left slot races.
  Strand* u = fx.root();
  auto b = fx.spawn_from(u);
  auto c = fx.spawn_from(b.cont);
  Strand* l = b.child;
  Strand* a = c.child;
  Strand* w = c.sync;
  add_read(l, 0, 7);
  add_read(a, 0, 7);
  add_write(w, 0, 7);
  process(l);
  process(a);
  process(w);
  expect_only_race(l, w);
}

TEST_F(HistoryStore, ReaderBetweenTheExtremesLeavesBothSlots) {
  // Inside X = b.child: spawn A, then the continuation B reads, sync, W
  // writes; C = b.cont reads.  English order A < B < C.  B arrives after A
  // and C and is neither slot's extreme, so the pair stays (A, C): each
  // slot is judged by its own relation to B.  W follows A and B but not C,
  // so only the right slot's C races.
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
  process(a);
  process(c);
  process(mid);
  process(w);
  expect_only_race(c, w);
}

TEST_F(HistoryStore, OneReaderStrandCostsOneReachQuery) {
  // A segment whose two slots hold the same strand is checked once.
  Strand* u = fx.root();
  auto b = fx.spawn_from(u);
  add_read(b.child, 0, 7);
  add_write(b.cont, 0, 7);
  process(b.child);
  history.apply(*b.cont, detect::kWriterRole, 0);
  const std::uint64_t before = fx.stats.reach_queries.load();
  history.apply(*b.cont, detect::kReaderRole, 0);
  EXPECT_EQ(fx.stats.reach_queries.load() - before, 1u);
  expect_only_race(b.child, b.cont);
}

TEST_F(HistoryStore, SerialReaderAfterParallelSetReplaces) {
  Strand* u = fx.root();
  auto b = fx.spawn_from(u);
  add_read(b.child, 0, 7);
  add_read(b.cont, 0, 7);
  add_read(b.sync, 0, 7);   // in series after both readers: replaces them
  add_write(b.sync, 0, 7);  // same strand writing is fine
  process(b.child);
  process(b.cont);
  process(b.sync);
  EXPECT_FALSE(fx.rep.any());
}

// ---------------------------------------------------------------------------
// Schedule equivalence: role lanes, both roles, stripes
// ---------------------------------------------------------------------------

TEST(ShardedHistory, PieceDecompositionCoversExactly) {
  // The shard pieces of [lo, hi] across all shards must partition it.
  const std::uint64_t lo = 3 * detect::kShardStripeBytes - 17;
  const std::uint64_t hi = 7 * detect::kShardStripeBytes + 123;
  for (int n : {1, 2, 3, 4, 8}) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> pieces;
    for (int k = 0; k < n; ++k) {
      detect::for_shard_pieces(lo, hi, k, n,
                               [&](std::uint64_t a, std::uint64_t b) {
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

namespace {

using PintHistory = detect::HistoryDriver<store::ReaderPair>;

/// A scripted sealed-strand sequence in DAG-conforming order: blocks of
/// parallel children plus the block's last continuation, each block
/// closed by a sync strand in series after all of them.  Accesses spread
/// over four stripes, under two locksets, with stack clears and frees.
std::vector<Strand*> scripted_strands(HistoryFixture& fx, bool coalesce) {
  const detect::lockset_t guarded =
      detect::LocksetTable::instance().acquire(0, 0x1000);
  Xoshiro256 rng(11);
  detect::SealTally tally;
  std::vector<Strand*> out;
  auto record = [&](Strand* s) {
    for (const detect::lockset_t lsid : {guarded, detect::lockset_t(0)}) {
      s->enter(lsid);
      for (int k = 0; k < 10; ++k) {
        const std::uint64_t lo = rng.next_below(4 * detect::kShardStripeBytes);
        const std::uint64_t hi = lo + rng.next_below(3000);
        detect::AccessBuffer& buf = rng.next_below(2) == 0
                                        ? s->active().reads
                                        : s->active().writes;
        if (coalesce) {
          buf.add(lo, hi);
        } else {
          buf.add_raw(lo, hi);
        }
      }
    }
    if (rng.next_below(4) == 0) {
      const std::uint64_t lo = rng.next_below(4 * detect::kShardStripeBytes);
      s->clears.push_back({lo, lo + rng.next_below(1 << 17)});
    }
    if (rng.next_below(4) == 0) {
      const std::uint64_t lo = rng.next_below(4 * detect::kShardStripeBytes);
      s->frees.push_back({nullptr, lo, lo + rng.next_below(512)});
    }
    detect::seal_strand(*s, coalesce, tally);
    out.push_back(s);
  };
  reach::Engine::Label cont = fx.reach.root_label();
  for (int block = 0; block < 6; ++block) {
    Strand* sync = fx.strand({});
    for (int c = 0; c < 3; ++c) {
      const auto l = fx.reach.on_spawn(cont, &sync->label);
      record(fx.strand(l.child));
      cont = l.cont;
    }
    record(fx.strand(cont));
    record(sync);
    cont = sync->label;
  }
  return out;
}

/// One schedule's outcome: its race pairs and its stores' segments, split
/// at stripe boundaries and concatenated over the stripes in address order.
struct Outcome {
  std::vector<std::tuple<std::uint64_t, std::uint64_t, int, int>> races;
  std::uint64_t distinct = 0, dropped = 0;
  // (lo, hi, sid, lsid) and (lo, hi, left sid, left lsid, right sid,
  // right lsid).
  std::vector<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t,
                         std::uint64_t>>
      writer;
  std::vector<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t,
                         std::uint64_t, std::uint64_t, std::uint64_t>>
      reader;

  bool operator==(const Outcome&) const = default;
};

template <class F>
void split_at_stripes(std::uint64_t lo, std::uint64_t hi, F&& fn) {
  detect::for_shard_pieces(lo, hi, 0, 1, fn);
}

Outcome outcome_of(const HistoryFixture& fx, const PintHistory& h,
                   int nstripes) {
  Outcome o;
  for (const detect::RaceRecord& r : fx.rep.records()) {
    o.races.push_back({r.prev_sid, r.cur_sid, r.prev_write, r.cur_write});
  }
  std::sort(o.races.begin(), o.races.end());
  o.distinct = fx.rep.distinct_races();
  o.dropped = fx.rep.dropped_records();
  for (int k = 0; k < nstripes; ++k) {
    h.inspect(k, [&](const store::IntervalStore& w,
                     const store::ReaderStore& r) {
      w.for_each([&](std::uint64_t lo, std::uint64_t hi, store::Handle x) {
        const store::Accessor& a = w.table()[x];
        split_at_stripes(lo, hi, [&](std::uint64_t a_lo, std::uint64_t a_hi) {
          o.writer.push_back({a_lo, a_hi, a.sid, a.lsid});
        });
      });
      r.for_each([&](std::uint64_t lo, std::uint64_t hi,
                     const store::ReaderPair& p) {
        const store::Accessor& l = r.table()[p.left];
        const store::Accessor& rt = r.table()[p.right];
        split_at_stripes(lo, hi, [&](std::uint64_t a_lo, std::uint64_t a_hi) {
          o.reader.push_back({a_lo, a_hi, l.sid, l.lsid, rt.sid, rt.lsid});
        });
      });
    });
  }
  std::sort(o.writer.begin(), o.writer.end());
  std::sort(o.reader.begin(), o.reader.end());
  return o;
}

}  // namespace

TEST(HistoryDriver, EverySchedulePicksTheSameRacesAndSegments) {
  // One scripted sequence through (a) role lanes - the writer pass over
  // every strand, then the reader pass, as phased PINT runs them; (b) both
  // roles per strand; (c) 2, 3 and 4 stripes, each stripe's lane applying
  // both roles to every strand.  Each must report the same races and leave
  // the same segments.  With coalescing off the lists are not canonical
  // and go to the stores one interval at a time.
  for (const bool coalesce : {true, false}) {
    HistoryFixture script;
    const std::vector<Strand*> strands = scripted_strands(script, coalesce);
    auto run = [&](int shards, auto&& schedule) {
      HistoryFixture fx;
      PintHistory h(shards, detect::Schedule::kPhased, script.reach, fx.rep,
                    fx.stats);
      schedule(h);
      return outcome_of(fx, h, shards == 0 ? 1 : shards);
    };
    const Outcome roles = run(0, [&](PintHistory& h) {
      for (Strand* s : strands) h.apply(*s, detect::kWriterRole, 0);
      for (Strand* s : strands) h.apply(*s, detect::kReaderRole, 0);
    });
    ASSERT_GT(roles.distinct, 0u);
    ASSERT_EQ(roles.dropped, 0u);  // the race sets compare in full
    ASSERT_FALSE(roles.writer.empty());
    ASSERT_FALSE(roles.reader.empty());
    const Outcome both = run(0, [&](PintHistory& h) {
      for (Strand* s : strands) h.apply(*s, detect::kBothRoles, 0);
    });
    EXPECT_EQ(both, roles) << "coalesce=" << coalesce;
    for (int n : {2, 3, 4}) {
      const Outcome striped = run(n, [&](PintHistory& h) {
        for (int k = 0; k < n; ++k) {
          for (Strand* s : strands) h.apply(*s, detect::kBothRoles, k);
        }
      });
      EXPECT_EQ(striped.races, roles.races)
          << "stripes=" << n << " coalesce=" << coalesce;
      EXPECT_EQ(striped.distinct, roles.distinct) << "stripes=" << n;
      EXPECT_EQ(striped.writer, roles.writer) << "stripes=" << n;
      EXPECT_EQ(striped.reader, roles.reader) << "stripes=" << n;
    }
  }
}
