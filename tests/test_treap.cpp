// Unit, differential and property tests for the interval store (the B+-tree
// that holds each access history, DESIGN.md §15).

#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "store/interval_store.hpp"
#include "support/rng.hpp"
#include "table_compaction.hpp"

using namespace pint;
using store::Accessor;
using store::Handle;
using store::IntervalStore;
using store::ReaderPair;
using store::ReaderStore;

namespace {

constexpr std::uint64_t kMaxAddr = ~std::uint64_t(0);
constexpr std::uint64_t B = IntervalStore::kLeaf;

Accessor acc(std::uint64_t sid) { return {{}, sid}; }

/// Strand `sid`'s handle in t: its table entry when there is one, so one
/// sid keeps one handle per store, as one (sid, lsid) does in the history
/// layer.
template <class Store>
Handle own(Store& t, std::uint64_t sid) {
  const store::AccessorTable& tab = t.table();
  for (Handle h = 0; h < tab.size(); ++h) {
    if (tab[h].sid == sid) return h;
  }
  return t.intern(acc(sid));
}
template <class Store>
std::uint64_t sid_of(const Store& t, Handle h) {
  return t.table()[h].sid;
}
ReaderPair pair_of(ReaderStore& t, std::uint64_t l, std::uint64_t r) {
  return {own(t, l), own(t, r)};
}
auto noop = [](auto, auto, const auto&) {};

struct Seg {
  std::uint64_t lo, hi, sid;
  std::uint64_t rsid = 0;  // right slot; 0 in a one-sided store
  bool operator==(const Seg&) const = default;
};

std::vector<Seg> contents(const IntervalStore& t) {
  std::vector<Seg> out;
  t.for_each([&](std::uint64_t lo, std::uint64_t hi, Handle h) {
    out.push_back({lo, hi, sid_of(t, h)});
  });
  return out;
}
std::vector<Seg> contents(const ReaderStore& t) {
  std::vector<Seg> out;
  t.for_each([&](std::uint64_t lo, std::uint64_t hi, const ReaderPair& p) {
    out.push_back({lo, hi, sid_of(t, p.left), sid_of(t, p.right)});
  });
  return out;
}

/// Event key of a segment's slots: the owner's sid one-sided, both sids
/// packed for a reader pair.
std::uint64_t slot_key(std::uint64_t sid, std::uint64_t rsid) {
  return rsid == 0 ? sid : (sid << 32 | rsid);
}
std::uint64_t slot_key(const ReaderStore& t, const ReaderPair& p) {
  return slot_key(sid_of(t, p.left), sid_of(t, p.right));
}

/// Synthetic reachability over sids for the two retention rules: a fixed
/// series relation plus an English rank.  The left slot takes a reader in
/// series after it or left of it, the right slot one in series after it or
/// right of it - the rules of the paper's left-most and right-most reader
/// treaps.
bool in_series(std::uint64_t prev, std::uint64_t a) {
  return (prev * 31 + a) % 5 == 0;
}
std::uint64_t english_rank(std::uint64_t sid) {
  return (sid * 2654435761u) % 1000003;
}
bool left_wins(std::uint64_t prev, std::uint64_t a) {
  return prev != a &&
         (in_series(prev, a) || english_rank(a) < english_rank(prev));
}
bool right_wins(std::uint64_t prev, std::uint64_t a) {
  return prev != a &&
         (in_series(prev, a) || english_rank(a) > english_rank(prev));
}

struct Iv {
  std::uint64_t lo, hi;
};

// Event log entry: op tag + three op-dependent fields.
using Ev = std::tuple<char, std::uint64_t, std::uint64_t, std::uint64_t>;

/// Reference model: one (segment id, slots) per byte, where the slots are
/// one owner (a one-sided store; rsid 0) or a (left, right) reader pair (a
/// two-sided store).  A stored segment is a maximal run of bytes sharing a
/// segment id, so the model states the store's segment-level contract
/// directly - which overlaps a write reports, which segments a reader insert
/// resolves and how its pieces coalesce - without any tree.
class ByteModel {
 public:
  /// Last-writer insert of the slots (sid, rsid); logs ('w', lo, hi,
  /// slot_key) per overlapped segment.
  void write(std::uint64_t lo, std::uint64_t hi, std::uint64_t sid,
             std::vector<Ev>* ev, std::uint64_t rsid = 0) {
    for (const Seg& s : overlaps(lo, hi)) {
      ev->push_back({'w', s.lo, s.hi, slot_key(s.sid, s.rsid)});
    }
    assign(lo, hi, {sid, rsid});
  }
  /// One-sided reader insert: one resolve(prev sid, sid) per overlapped
  /// segment in address order, gaps to the new reader, same-owner
  /// neighbours of this call coalesced.
  template <class R>
  void read(std::uint64_t lo, std::uint64_t hi, std::uint64_t sid,
            R&& resolve) {
    cover(lo, hi, {sid, 0},
          [&](const Seg& s) { return Slots{resolve(s.sid, sid), 0}; });
  }
  /// Two-sided reader insert: per overlapped segment the left slot follows
  /// left_wins and the right slot right_wins, each on its own (logged as
  /// ('r', slot_key, sid, 0)); gaps take (sid, sid), and neighbours of this
  /// call coalesce only when both slots match.
  void read_pair(std::uint64_t lo, std::uint64_t hi, std::uint64_t sid,
                 std::vector<Ev>* ev) {
    cover(lo, hi, {sid, sid}, [&](const Seg& s) {
      ev->push_back({'r', slot_key(s.sid, s.rsid), sid, 0});
      return Slots{left_wins(s.sid, sid) ? sid : s.sid,
                   right_wins(s.rsid, sid) ? sid : s.rsid};
    });
  }
  void erase(std::uint64_t lo, std::uint64_t hi) {
    owner_.erase(owner_.lower_bound(lo),
                 hi == kMaxAddr ? owner_.end() : owner_.upper_bound(hi));
  }
  void query(std::uint64_t lo, std::uint64_t hi, std::vector<Ev>* ev) const {
    for (const Seg& s : overlaps(lo, hi)) {
      ev->push_back({'q', s.lo, s.hi, slot_key(s.sid, s.rsid)});
    }
  }
  std::uint64_t at(std::uint64_t b) const {
    auto it = owner_.find(b);
    return it == owner_.end() ? 0 : it->second.slots.sid;
  }
  /// Maximal same-id runs: the segment set the store must hold.
  std::vector<Seg> segments() const {
    return runs(owner_.begin(), owner_.end());
  }

 private:
  struct Slots {
    std::uint64_t sid, rsid;
  };
  struct Cell {
    std::uint64_t id;
    Slots slots;
  };
  using Map = std::map<std::uint64_t, Cell>;

  /// Reader-insert core: overlapped segments take pick(segment) in address
  /// order, gaps take `fresh`, equal-slot neighbours of this call coalesce.
  template <class Pick>
  void cover(std::uint64_t lo, std::uint64_t hi, Slots fresh, Pick&& pick) {
    std::vector<Seg> pieces;
    auto push = [&](std::uint64_t a, std::uint64_t b, Slots w) {
      if (!pieces.empty() && pieces.back().sid == w.sid &&
          pieces.back().rsid == w.rsid && pieces.back().hi + 1 == a) {
        pieces.back().hi = b;
      } else {
        pieces.push_back({a, b, w.sid, w.rsid});
      }
    };
    std::uint64_t cur = lo;
    bool done = false;
    for (const Seg& s : overlaps(lo, hi)) {
      if (s.lo > cur) push(cur, s.lo - 1, fresh);
      push(s.lo, s.hi, pick(s));
      if (s.hi == hi) {
        done = true;
        break;
      }
      cur = s.hi + 1;
    }
    if (!done) push(cur, hi, fresh);
    for (const Seg& p : pieces) assign(p.lo, p.hi, {p.sid, p.rsid});
  }

  void assign(std::uint64_t lo, std::uint64_t hi, Slots slots) {
    const std::uint64_t id = next_id_++;
    for (auto b = lo;; ++b) {
      owner_[b] = {id, slots};
      if (b == hi) break;
    }
  }
  /// Overlapped segments trimmed to [lo, hi], in address order.
  std::vector<Seg> overlaps(std::uint64_t lo, std::uint64_t hi) const {
    return runs(owner_.lower_bound(lo),
                hi == kMaxAddr ? owner_.end() : owner_.upper_bound(hi));
  }
  static std::vector<Seg> runs(Map::const_iterator it,
                               Map::const_iterator end) {
    std::vector<Seg> out;
    std::uint64_t id = 0;
    for (; it != end; ++it) {
      if (!out.empty() && id == it->second.id &&
          out.back().hi + 1 == it->first) {
        out.back().hi = it->first;
      } else {
        out.push_back({it->first, it->first, it->second.slots.sid,
                       it->second.slots.rsid});
        id = it->second.id;
      }
    }
    return out;
  }

  Map owner_;
  std::uint64_t next_id_ = 1;
};

/// Deterministic winner rule over sids: the new reader's sid or prev's.
std::uint64_t resolve_by_sid(std::uint64_t prev, std::uint64_t a) {
  return ((prev * 31 + a) & 1) == 0 ? a : prev;
}
/// resolve_by_sid on t's handles.
auto resolve_in(const IntervalStore& t) {
  return [&t](Handle p, Handle a) {
    return resolve_by_sid(sid_of(t, p), sid_of(t, a)) == sid_of(t, a) ? a : p;
  };
}

std::uint64_t store_at(const IntervalStore& t, std::uint64_t b) {
  std::uint64_t sid = 0;
  t.query(b, b, [&](std::uint64_t, std::uint64_t, Handle h) {
    sid = sid_of(t, h);
  });
  return sid;
}

/// n disjoint 4-byte segments [10i, 10i+3], owner i+1.
void fill(IntervalStore& t, std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) {
    t.insert_writer(i * 10, i * 10 + 3, own(t, i + 1), noop);
  }
}

std::uint64_t bitrev(std::uint64_t x, int bits) {
  std::uint64_t r = 0;
  for (int i = 0; i < bits; ++i) r |= ((x >> i) & 1) << (bits - 1 - i);
  return r;
}

/// fft's reader traffic: run r reads the 8-byte granule bitrev(r) of each
/// of `per_run` blocks of 2^bits granules.
std::vector<Iv> fft_run(std::uint64_t r, int bits, std::uint64_t per_run) {
  std::vector<Iv> iv;
  const std::uint64_t off = bitrev(r, bits) * 8;
  for (std::uint64_t j = 0; j < per_run; ++j) {
    const std::uint64_t lo = (j << bits) * 8 + off;
    iv.push_back({lo, lo + 7});
  }
  return iv;
}

/// Grows t from empty with fft's first pass, 2^bits runs of `per_run`
/// granules, run r owned by strand r+1: every interval is a new segment
/// landing between two earlier ones.
template <class Store>
void fft_fill(Store& t, int bits, std::uint64_t per_run) {
  for (std::uint64_t r = 0; r < (std::uint64_t(1) << bits); ++r) {
    const std::vector<Iv> iv = fft_run(r, bits, per_run);
    typename Store::Payload who;
    if constexpr (std::is_same_v<Store, ReaderStore>) {
      who = pair_of(t, r + 1, r + 1);
    } else {
      who = own(t, r + 1);
    }
    t.insert_reader_run(iv.data(), iv.size(), who,
                        [](const auto& prev, const auto&) { return prev; });
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Segment semantics
// ---------------------------------------------------------------------------

TEST(IntervalStore, PaperExampleSplitsCorrectly) {
  // Paper §III-A: {[1,4]:u, [6,10]:v} + write [3,7]:w
  //            => {[1,2]:u, [3,7]:w, [8,10]:v}
  IntervalStore t;
  t.insert_writer(1, 4, own(t, 1), noop);
  t.insert_writer(6, 10, own(t, 2), noop);
  std::vector<Seg> reported;
  t.insert_writer(3, 7, own(t, 3),
                  [&](std::uint64_t lo, std::uint64_t hi, Handle h) {
                    reported.push_back({lo, hi, sid_of(t, h)});
                  });
  EXPECT_EQ(contents(t), (std::vector<Seg>{{1, 2, 1}, {3, 7, 3}, {8, 10, 2}}));
  // Overlapped segments reported in address order with previous owners.
  EXPECT_EQ(reported, (std::vector<Seg>{{3, 4, 1}, {6, 7, 2}}));
  EXPECT_TRUE(t.check_invariants());
}

TEST(IntervalStore, ExactCoverInsert) {
  IntervalStore t;
  t.insert_writer(10, 20, own(t, 1), noop);
  std::vector<Seg> rep;
  t.insert_writer(10, 20, own(t, 2),
                  [&](std::uint64_t lo, std::uint64_t hi, Handle h) {
                    rep.push_back({lo, hi, sid_of(t, h)});
                  });
  EXPECT_EQ(rep, (std::vector<Seg>{{10, 20, 1}}));
  EXPECT_EQ(contents(t), (std::vector<Seg>{{10, 20, 2}}));
}

TEST(IntervalStore, InsertInsideSplitsBothSides) {
  IntervalStore t;
  t.insert_writer(0, 100, own(t, 1), noop);
  t.insert_writer(40, 60, own(t, 2), noop);
  EXPECT_EQ(contents(t),
            (std::vector<Seg>{{0, 39, 1}, {40, 60, 2}, {61, 100, 1}}));
  EXPECT_TRUE(t.check_invariants());
}

TEST(IntervalStore, QueryDoesNotMutate) {
  IntervalStore t;
  t.insert_writer(5, 9, own(t, 1), noop);
  int hits = 0;
  t.query(0, 100, [&](std::uint64_t lo, std::uint64_t hi, Handle h) {
    EXPECT_EQ(lo, 5u);
    EXPECT_EQ(hi, 9u);
    EXPECT_EQ(sid_of(t, h), 1u);
    ++hits;
  });
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(contents(t).size(), 1u);
}

TEST(IntervalStore, QueryTrimsToRange) {
  IntervalStore t;
  t.insert_writer(10, 30, own(t, 1), noop);
  t.query(20, 25, [&](std::uint64_t lo, std::uint64_t hi, Handle) {
    EXPECT_EQ(lo, 20u);
    EXPECT_EQ(hi, 25u);
  });
}

TEST(IntervalStore, EraseRangeTruncatesBoundaries) {
  IntervalStore t;
  t.insert_writer(0, 9, own(t, 1), noop);
  t.insert_writer(10, 19, own(t, 2), noop);
  t.insert_writer(20, 29, own(t, 3), noop);
  t.erase_range(5, 24);
  EXPECT_EQ(contents(t), (std::vector<Seg>{{0, 4, 1}, {25, 29, 3}}));
  EXPECT_TRUE(t.check_invariants());
}

TEST(IntervalStore, EraseAllLeavesEmpty) {
  IntervalStore t;
  for (int i = 0; i < 64; ++i) {
    t.insert_writer(std::uint64_t(i) * 10, std::uint64_t(i) * 10 + 5,
                    own(t, 1), noop);
  }
  t.erase_range(0, 10000);
  EXPECT_TRUE(t.empty());
  EXPECT_TRUE(t.check_invariants());
}

TEST(IntervalStore, ReaderInsertSeriesReplaces) {
  IntervalStore t;
  t.insert_reader(0, 50, own(t, 1), [](Handle, Handle a) {
    return a;  // unconditionally take new (no prior anyway)
  });
  // New reader wins every overlap (simulates prev ~> cur).
  t.insert_reader(10, 20, own(t, 2), [](Handle, Handle a) { return a; });
  EXPECT_EQ(contents(t),
            (std::vector<Seg>{{0, 9, 1}, {10, 20, 2}, {21, 50, 1}}));
}

TEST(IntervalStore, ReaderInsertKeepLosesGaps) {
  IntervalStore t;
  t.insert_reader(10, 20, own(t, 1), [](Handle, Handle a) { return a; });
  // Old reader kept on overlap; the new one still fills uncovered gaps.
  t.insert_reader(0, 30, own(t, 2), [](Handle p, Handle) { return p; });
  EXPECT_EQ(contents(t),
            (std::vector<Seg>{{0, 9, 2}, {10, 20, 1}, {21, 30, 2}}));
}

TEST(IntervalStore, ReaderInsertCoalescesSameWinner) {
  IntervalStore t;
  t.insert_reader(10, 14, own(t, 1), [](Handle, Handle a) { return a; });
  t.insert_reader(15, 19, own(t, 1), [](Handle, Handle a) { return a; });
  // Covering insert where the NEW accessor always wins merges to one segment.
  t.insert_reader(5, 25, own(t, 1), [](Handle, Handle a) { return a; });
  EXPECT_EQ(contents(t), (std::vector<Seg>{{5, 25, 1}}));
}

TEST(IntervalStore, AdjacentIntervalsDoNotMergeAcrossOwners) {
  IntervalStore t;
  t.insert_writer(0, 9, own(t, 1), noop);
  t.insert_writer(10, 19, own(t, 2), noop);
  EXPECT_EQ(contents(t).size(), 2u);
}

TEST(IntervalStore, SingleByteIntervals) {
  IntervalStore t;
  for (std::uint64_t b = 0; b < 100; b += 2) {
    t.insert_writer(b, b, own(t, b + 1), noop);
  }
  EXPECT_EQ(t.size(), 50u);
  t.insert_writer(0, 99, own(t, 777), noop);
  EXPECT_EQ(contents(t), (std::vector<Seg>{{0, 99, 777}}));
  EXPECT_TRUE(t.check_invariants());
}

// ---------------------------------------------------------------------------
// Leaf boundaries
// ---------------------------------------------------------------------------

TEST(IntervalStore, LeafCapacityBoundaries) {
  // B-1 and B segments fit the root leaf; B+1 forces the first split.  Each
  // size then takes a covering write across every boundary it has.
  for (std::uint64_t n : {B - 1, B, B + 1, 2 * B, 2 * B + 1}) {
    IntervalStore t;
    fill(t, n);
    ASSERT_TRUE(t.check_invariants()) << "n=" << n;
    ASSERT_EQ(t.size(), n);
    for (std::uint64_t i = 0; i < n; ++i) {
      ASSERT_EQ(store_at(t, i * 10 + 2), i + 1);
    }
    std::vector<Seg> rep;
    t.insert_writer(5, n * 10, own(t, 999), [&](auto lo, auto hi, Handle h) {
      rep.push_back({lo, hi, sid_of(t, h)});
    });
    ASSERT_EQ(rep.size(), n - 1) << "n=" << n;  // every segment but [0,3]
    EXPECT_EQ(rep.front(), (Seg{10, 13, 2}));
    EXPECT_EQ(contents(t), (std::vector<Seg>{{0, 3, 1}, {5, n * 10, 999}}));
    EXPECT_TRUE(t.check_invariants()) << "n=" << n;
  }
}

TEST(IntervalStore, CarveSpanningManyLeaves) {
  // 8 leaves' worth of segments; one write covers the middle ~5 leaves and
  // trims a segment on each side, so whole leaves are unlinked and the
  // surviving neighbours meet at one separator.
  IntervalStore t;
  const std::uint64_t n = 8 * B;
  fill(t, n);
  ByteModel m;
  std::vector<Ev> ev_m, ev_t;
  for (std::uint64_t i = 0; i < n; ++i) {
    m.write(i * 10, i * 10 + 3, i + 1, &ev_m);
  }
  ev_m.clear();
  const std::uint64_t lo = B * 10 + 2, hi = 6 * B * 10 + 1;
  m.write(lo, hi, 5000, &ev_m);
  t.insert_writer(lo, hi, own(t, 5000), [&](auto a, auto b, Handle w) {
    ev_t.push_back({'w', a, b, sid_of(t, w)});
  });
  EXPECT_EQ(ev_t, ev_m);
  EXPECT_GE(ev_t.size(), 4 * B);
  EXPECT_EQ(contents(t), m.segments());
  EXPECT_TRUE(t.check_invariants());
  // Erase across the same span, then a reader insert over the hole.
  t.erase_range(lo - 30, hi + 30);
  m.erase(lo - 30, hi + 30);
  EXPECT_EQ(contents(t), m.segments());
  EXPECT_TRUE(t.check_invariants());
  t.insert_reader(0, n * 10, own(t, 6000), resolve_in(t));
  m.read(0, n * 10, 6000, resolve_by_sid);
  EXPECT_EQ(contents(t), m.segments());
  EXPECT_TRUE(t.check_invariants());
}

TEST(IntervalStore, WritesEndingAtMaxAddr) {
  IntervalStore t;
  ByteModel m;
  std::vector<Ev> ev_m, ev_t;
  auto log = [&](auto a, auto b, Handle w) {
    ev_t.push_back({'w', a, b, sid_of(t, w)});
  };
  // Enough segments near the top of the address space to span leaves.
  for (std::uint64_t i = 0; i < 3 * B; ++i) {
    const std::uint64_t lo = kMaxAddr - 6000 + i * 100;
    t.insert_writer(lo, lo + 49, own(t, i + 1), noop);
    m.write(lo, lo + 49, i + 1, &ev_m);
  }
  t.insert_writer(kMaxAddr - 7, kMaxAddr, own(t, 90), log);
  m.write(kMaxAddr - 7, kMaxAddr, 90, &ev_m);
  // Overwrite from mid-way to the very top: every later leaf goes.
  ev_m.clear();
  t.insert_writer(kMaxAddr - 2525, kMaxAddr, own(t, 91), log);
  m.write(kMaxAddr - 2525, kMaxAddr, 91, &ev_m);
  EXPECT_EQ(ev_t, ev_m);
  EXPECT_EQ(contents(t), m.segments());
  EXPECT_EQ(contents(t).back(), (Seg{kMaxAddr - 2525, kMaxAddr, 91}));
  EXPECT_TRUE(t.check_invariants());
  t.insert_reader(kMaxAddr - 3000, kMaxAddr, own(t, 92), resolve_in(t));
  m.read(kMaxAddr - 3000, kMaxAddr, 92, resolve_by_sid);
  EXPECT_EQ(contents(t), m.segments());
  t.erase_range(kMaxAddr - 100, kMaxAddr);
  m.erase(kMaxAddr - 100, kMaxAddr);
  EXPECT_EQ(contents(t), m.segments());
  EXPECT_TRUE(t.check_invariants());
}

TEST(IntervalStore, EmptiedLeavesAreReclaimed) {
  IntervalStore t;
  fill(t, 40 * B);
  // Tree nodes only: the accessor table shrinks at a later intern, not on
  // erase (its bound is tested below).
  auto tree_bytes = [&] { return t.node_bytes() - t.table().bytes(); };
  const std::size_t full = tree_bytes();
  // Erasing three quarters of the segments, one at a time from the left,
  // empties (and frees) their leaves.
  for (std::uint64_t i = 0; i < 30 * B; ++i) t.erase_range(i * 10, i * 10 + 3);
  EXPECT_TRUE(t.check_invariants());
  EXPECT_EQ(t.size(), 10 * B);
  EXPECT_LT(tree_bytes(), full / 2);
  // Thinning the rest to one segment per old leaf folds small leaves into
  // their siblings instead of keeping a leaf per survivor, and the parents
  // left with a child or two into theirs.
  for (std::uint64_t i = 30 * B; i < 40 * B; ++i) {
    if (i % B != 0) t.erase_range(i * 10, i * 10 + 3);
  }
  EXPECT_TRUE(t.check_invariants());
  EXPECT_EQ(t.size(), 10u);
  EXPECT_LT(tree_bytes(), full / 10);
  t.erase_range(0, kMaxAddr);
  EXPECT_TRUE(t.empty());
  EXPECT_TRUE(t.check_invariants());
}

TEST(IntervalStore, FootprintStaysUnderTheTreapNode) {
  // Leaves stay well filled whether segments arrive in address order
  // (coalesced records: appends fill a leaf and open the next), scattered
  // (random writes) or bit-reversed (fft's reads, each landing between two
  // earlier ones): the footprint per segment stays under the 88-byte treap
  // node it replaced, even with one accessor per segment in the table.
  // The tree's own bytes have a bar of their own: 33 for the first two
  // fills (measured 20.6 and 26.5 per segment), and 23 for the fft fill
  // (measured 22.0).
  IntervalStore ascending, scattered, fft;
  fill(ascending, 64 * B);
  Xoshiro256 rng(5);
  std::vector<std::uint64_t> order(64 * B);
  for (std::uint64_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  for (std::uint64_t i : order) {
    scattered.insert_writer(i * 10, i * 10 + 3, own(scattered, i + 1), noop);
  }
  for (const IntervalStore* t : {&ascending, &scattered}) {
    ASSERT_EQ(t->size(), 64 * B);
    EXPECT_LT(double(t->node_bytes()) / double(t->size()), 88.0);
    EXPECT_LT(double(t->node_bytes() - t->table().bytes()) / double(t->size()),
              33.0);
  }
  // Ascending appends fill inner nodes as they fill leaves: a node the
  // appends pass stays full, so every level holds full nodes and one last
  // partial one (an even split would leave them at 16-17 of 32 children).
  IntervalStore deep;
  constexpr std::uint64_t F = IntervalStore::kFan;
  const std::uint64_t leaves = 2 * F * F + 5;
  fill(deep, leaves * B);
  EXPECT_TRUE(deep.check_invariants());
  EXPECT_EQ(deep.leaf_count(), leaves);
  std::size_t want = 0;
  for (std::uint64_t n = leaves; n > 1;) {
    n = (n + F - 1) / F;
    want += n;
  }
  EXPECT_EQ(deep.inner_count(), want);
  fft_fill(fft, 8, 16);
  ASSERT_EQ(fft.size(), 256u * 16u);
  EXPECT_TRUE(fft.check_invariants());
  EXPECT_LT(double(fft.node_bytes()) / double(fft.size()), 88.0);
  EXPECT_LT(double(fft.node_bytes() - fft.table().bytes()) /
                double(fft.size()),
            23.0);
}

// ---------------------------------------------------------------------------
// Differential: every op, runs included, against the byte model
// ---------------------------------------------------------------------------

namespace {

/// A sorted, pairwise-disjoint run (adjacency allowed): up to kmax
/// intervals of up to `len` bytes with gaps up to `gap`.
std::vector<Iv> make_run(Xoshiro256& rng, std::uint64_t span, std::size_t kmax,
                         std::uint64_t len, std::uint64_t gap) {
  const std::size_t k = 1 + rng.next_below(kmax);
  std::vector<Iv> run;
  std::uint64_t lo = rng.next_below(span);
  for (std::size_t j = 0; j < k; ++j) {
    const std::uint64_t l = 1 + rng.next_below(len);
    run.push_back({lo, lo + l - 1});
    lo += l + rng.next_below(gap + 1);
  }
  return run;
}

enum OpKind { kWrite, kRead, kQuery, kErase };

/// Applies op `kind` (the run form when `run`, else r[0] alone) to both the
/// store and the model, logging callbacks and resolver calls into ev_t /
/// ev_m.
void apply_op(OpKind kind, bool run, IntervalStore& t, ByteModel& m,
              const std::vector<Iv>& r, std::uint64_t sid,
              std::vector<Ev>* ev_t, std::vector<Ev>* ev_m) {
  auto log_t = [ev_t, &t](char tag) {
    return [ev_t, &t, tag](auto lo, auto hi, Handle w) {
      ev_t->push_back({tag, lo, hi, sid_of(t, w)});
    };
  };
  auto resolve_t = [ev_t, resolve = resolve_in(t), &t](Handle p, Handle a) {
    ev_t->push_back({'r', sid_of(t, p), sid_of(t, a), 0});
    return resolve(p, a);
  };
  auto resolve_m = [ev_m](std::uint64_t p, std::uint64_t a) {
    ev_m->push_back({'r', p, a, 0});
    return resolve_by_sid(p, a);
  };
  switch (kind) {
    case kWrite:
      if (run) {
        t.insert_writer_run(r.data(), r.size(), own(t, sid), log_t('w'));
      } else {
        t.insert_writer(r[0].lo, r[0].hi, own(t, sid), log_t('w'));
      }
      for (const Iv& iv : r) m.write(iv.lo, iv.hi, sid, ev_m);
      break;
    case kRead:
      if (run) {
        t.insert_reader_run(r.data(), r.size(), own(t, sid), resolve_t);
      } else {
        t.insert_reader(r[0].lo, r[0].hi, own(t, sid), resolve_t);
      }
      for (const Iv& iv : r) m.read(iv.lo, iv.hi, sid, resolve_m);
      break;
    case kQuery:
      if (run) {
        t.query_run(r.data(), r.size(), log_t('q'));
      } else {
        t.query(r[0].lo, r[0].hi, log_t('q'));
      }
      for (const Iv& iv : r) m.query(iv.lo, iv.hi, ev_m);
      break;
    case kErase:
      if (run) {
        t.erase_run(r.data(), r.size());
      } else {
        t.erase_range(r[0].lo, r[0].hi);
      }
      for (const Iv& iv : r) m.erase(iv.lo, iv.hi);
      break;
  }
}

/// apply_op of a random kind, in the run form for runs of two or more and
/// at random for one interval.
void random_op(Xoshiro256& rng, IntervalStore& t, ByteModel& m,
               const std::vector<Iv>& r, std::uint64_t sid,
               std::vector<Ev>* ev_t, std::vector<Ev>* ev_m) {
  const bool run = r.size() > 1 || rng.next_below(2) == 0;
  apply_op(OpKind(rng.next_below(4)), run, t, m, r, sid, ev_t, ev_m);
}

}  // namespace

TEST(IntervalStoreDifferential, EveryOpMatchesTheByteModelExactly) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Xoshiro256 rng(seed);
    IntervalStore t;
    ByteModel m;
    std::vector<Ev> ev_t, ev_m;
    for (int step = 0; step < 2500; ++step) {
      // Short intervals over a 16 KiB span keep ~1000 segments live: many
      // leaves, a two-level tree, and constant splits and merges.
      const std::uint64_t span = 1 << 14;
      const auto r = rng.next_below(3) == 0
                         ? make_run(rng, span, 24, 6, 40)   // sparse run
                         : make_run(rng, span, 6, 48, 3);   // dense run
      random_op(rng, t, m, r, 2 + std::uint64_t(step) % 97, &ev_t, &ev_m);
      ASSERT_EQ(ev_t, ev_m) << "seed=" << seed << " step=" << step;
      if (step % 100 == 0) {
        ASSERT_TRUE(t.check_invariants()) << "seed=" << seed << " @" << step;
        ASSERT_EQ(contents(t), m.segments()) << "seed=" << seed << " @" << step;
      }
    }
    EXPECT_TRUE(t.check_invariants());
    EXPECT_EQ(contents(t), m.segments()) << "seed=" << seed;
  }
}

TEST(IntervalStoreDifferential, WideErasesAndCoversMatchTheByteModel) {
  // Fewer, larger ops: carves that span many leaves (and unlink them) are
  // the common case here rather than the exception.
  for (std::uint64_t seed = 11; seed <= 14; ++seed) {
    Xoshiro256 rng(seed);
    IntervalStore t;
    ByteModel m;
    std::vector<Ev> ev_t, ev_m;
    for (int step = 0; step < 600; ++step) {
      const auto r = rng.next_below(4) == 0
                         ? make_run(rng, 1 << 13, 2, 1500, 400)
                         : make_run(rng, 1 << 13, 40, 3, 12);
      random_op(rng, t, m, r, 2 + std::uint64_t(step) % 13, &ev_t, &ev_m);
      ASSERT_EQ(ev_t, ev_m) << "seed=" << seed << " step=" << step;
      if (step % 50 == 0) {
        ASSERT_TRUE(t.check_invariants()) << "seed=" << seed << " @" << step;
        ASSERT_EQ(contents(t), m.segments()) << "seed=" << seed << " @" << step;
      }
    }
    EXPECT_EQ(contents(t), m.segments()) << "seed=" << seed;
  }
}

TEST(IntervalStoreDifferential, FftRunsAndAscendingAppendsMatchTheByteModel) {
  // The shapes that overflow leaves.  fft's bit-reversed strided runs land
  // between earlier segments (full leaves split evenly or balance into a
  // roomy sibling), half-granule re-reads split every segment in three,
  // and runs past the current top append (a full leaf opens the next).
  constexpr int kBits = 6;
  constexpr std::uint64_t kPerRun = 24;
  for (std::uint64_t seed = 21; seed <= 23; ++seed) {
    Xoshiro256 rng(seed);
    IntervalStore t;
    ByteModel m;
    std::vector<Ev> ev_t, ev_m;
    std::uint64_t top = (kPerRun << kBits) * 8;  // past the fft region
    std::uint64_t sid = 2;
    for (int stage = 0; stage < 2; ++stage) {
      for (std::uint64_t r = 0; r < (1u << kBits); ++r, ++sid) {
        std::vector<Iv> run = fft_run(r, kBits, kPerRun);
        if (stage == 1) {
          for (Iv& iv : run) iv = {iv.lo + 2, iv.lo + 5};
        }
        const OpKind kind = rng.next_below(4) == 0 ? kWrite : kRead;
        apply_op(kind, true, t, m, run, sid, &ev_t, &ev_m);
        ASSERT_EQ(ev_t, ev_m) << "seed=" << seed << " run=" << r;
        // An ascending append: a run starting past everything stored.
        std::vector<Iv> tail = make_run(rng, 1, 24, 12, 6);
        for (Iv& iv : tail) iv = {iv.lo + top, iv.hi + top};
        top = tail.back().hi + 1 + rng.next_below(16);
        apply_op(rng.next_below(2) == 0 ? kWrite : kRead, true, t, m, tail,
                 sid, &ev_t, &ev_m);
        ASSERT_EQ(ev_t, ev_m) << "seed=" << seed << " tail=" << r;
      }
      ASSERT_TRUE(t.check_invariants()) << "seed=" << seed;
      ASSERT_EQ(contents(t), m.segments()) << "seed=" << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

TEST(IntervalStore, PropertyWriterMatchesByteModel) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Xoshiro256 rng(seed);
    IntervalStore t;
    ByteModel m;
    std::vector<Ev> sink;
    constexpr std::uint64_t kSpan = 2000;
    for (int op = 0; op < 3000; ++op) {
      const std::uint64_t lo = rng.next_below(kSpan);
      const std::uint64_t hi = lo + rng.next_below(64);
      const auto kind = rng.next_below(10);
      if (kind < 7) {
        const std::uint64_t sid = 1 + rng.next_below(1000);
        t.insert_writer(lo, hi, own(t, sid), noop);
        m.write(lo, hi, sid, &sink);
      } else if (kind < 9) {
        // query must report exactly the model's owned bytes
        std::map<std::uint64_t, std::uint64_t> got;
        t.query(lo, hi, [&](std::uint64_t a, std::uint64_t b, Handle who) {
          for (auto x = a; x <= b; ++x) got[x] = sid_of(t, who);
        });
        for (auto x = lo; x <= hi; ++x) {
          const auto it = got.find(x);
          EXPECT_EQ(it == got.end() ? 0 : it->second, m.at(x));
        }
      } else {
        t.erase_range(lo, hi);
        m.erase(lo, hi);
      }
    }
    ASSERT_TRUE(t.check_invariants()) << "seed=" << seed;
    for (std::uint64_t b = 0; b < kSpan + 64; b += 7) {
      ASSERT_EQ(store_at(t, b), m.at(b)) << "seed=" << seed << " byte=" << b;
    }
  }
}

TEST(IntervalStore, PropertyNoOverlapInvariantUnderChurn) {
  Xoshiro256 rng(99);
  IntervalStore t;
  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t lo = rng.next_below(1 << 16);
    const std::uint64_t hi = lo + rng.next_below(256);
    if (rng.next_below(4) == 0) {
      t.erase_range(lo, hi);
    } else if (rng.next_below(2) == 0) {
      t.insert_writer(lo, hi, t.intern(acc(op + 1)), noop);
    } else {
      t.insert_reader(lo, hi, t.intern(acc(op + 1)), [&](Handle p, Handle a) {
        return rng.next_below(2) == 0 ? a : p;
      });
    }
    if (op % 2000 == 0) {
      ASSERT_TRUE(t.check_invariants()) << "op=" << op;
    }
  }
  EXPECT_TRUE(t.check_invariants());
}

TEST(IntervalStore, FftStridedRunsMatchPerIntervalTwin) {
  // fft's reader traffic: runs of single-granule intervals with a large
  // stride at bit-reversed offsets, revisited stage after stage.  The run
  // form (leaf finger) and the per-interval loop must agree event for event,
  // and the store must end up one segment per granule.
  constexpr std::uint64_t kRuns = 64, kPerRun = 32, kStride = 4096;
  IntervalStore run, per;
  std::vector<Ev> ev_run, ev_per;
  auto resolve_into = [](const IntervalStore& t, std::vector<Ev>* ev) {
    return [&t, ev](Handle p, Handle a) {
      ev->push_back({'r', sid_of(t, p), sid_of(t, a), 0});
      return (sid_of(t, p) + sid_of(t, a)) % 3 != 0 ? a : p;
    };
  };
  for (std::uint64_t stage = 0; stage < 3; ++stage) {
    for (std::uint64_t r = 0; r < kRuns; ++r) {
      std::vector<Iv> iv;
      const std::uint64_t off = bitrev(r, 6) * 8;
      for (std::uint64_t j = 0; j < kPerRun; ++j) {
        const std::uint64_t lo = j * kStride + off;
        iv.push_back({lo, lo + 7});
      }
      const std::uint64_t sid = 1 + stage * kRuns + r;
      run.insert_reader_run(iv.data(), iv.size(), own(run, sid),
                            resolve_into(run, &ev_run));
      for (const Iv& x : iv) {
        per.insert_reader(x.lo, x.hi, own(per, sid),
                          resolve_into(per, &ev_per));
      }
      ASSERT_EQ(ev_run, ev_per) << "stage=" << stage << " run=" << r;
    }
    ASSERT_TRUE(run.check_invariants());
  }
  EXPECT_EQ(contents(run), contents(per));
  EXPECT_EQ(run.size(), kRuns * kPerRun);
  // Queries along the same stride see one granule per interval.
  std::vector<Iv> probe;
  for (std::uint64_t j = 0; j < kPerRun; ++j) {
    probe.push_back({j * kStride, j * kStride + 511});
  }
  std::size_t hits = 0;
  run.query_run(probe.data(), probe.size(),
                [&](auto, auto, const auto&) { ++hits; });
  EXPECT_EQ(hits, kRuns * kPerRun);
}

// ---------------------------------------------------------------------------
// Two-sided reader store
// ---------------------------------------------------------------------------

namespace {

/// Per-byte slots of a store: (left sid, right sid) for a reader pair, the
/// owner's sid for a one-sided store.
std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>> pair_bytes(
    const ReaderStore& t) {
  std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>> out;
  t.for_each([&](std::uint64_t lo, std::uint64_t hi, const ReaderPair& p) {
    for (auto b = lo;; ++b) {
      out[b] = {sid_of(t, p.left), sid_of(t, p.right)};
      if (b == hi) break;
    }
  });
  return out;
}
std::map<std::uint64_t, std::uint64_t> owner_bytes(const IntervalStore& t) {
  std::map<std::uint64_t, std::uint64_t> out;
  t.for_each([&](std::uint64_t lo, std::uint64_t hi, Handle h) {
    for (auto b = lo;; ++b) {
      out[b] = sid_of(t, h);
      if (b == hi) break;
    }
  });
  return out;
}

/// The same run mirrored to the top of the address space, still sorted:
/// an interval starting at 0 becomes one ending at kMaxAddr.
std::vector<Iv> at_top(const std::vector<Iv>& r) {
  std::vector<Iv> out;
  for (auto it = r.rbegin(); it != r.rend(); ++it) {
    out.push_back({kMaxAddr - it->hi, kMaxAddr - it->lo});
  }
  return out;
}

/// The paper's reader treaps, one rule each, as one-sided stores.
struct OneSidedTwins {
  IntervalStore left, right;

  void read(const std::vector<Iv>& r, std::uint64_t sid) {
    for (const Iv& iv : r) {
      left.insert_reader(iv.lo, iv.hi, own(left, sid), [&](Handle p, Handle a) {
        return left_wins(sid_of(left, p), sid_of(left, a)) ? a : p;
      });
      right.insert_reader(iv.lo, iv.hi, own(right, sid),
                          [&](Handle p, Handle a) {
                            return right_wins(sid_of(right, p),
                                              sid_of(right, a))
                                       ? a
                                       : p;
                          });
    }
  }
  void write(const std::vector<Iv>& r, std::uint64_t l, std::uint64_t rs) {
    for (const Iv& iv : r) {
      left.insert_writer(iv.lo, iv.hi, own(left, l), noop);
      right.insert_writer(iv.lo, iv.hi, own(right, rs), noop);
    }
  }
  void erase(const std::vector<Iv>& r) {
    for (const Iv& iv : r) {
      left.erase_range(iv.lo, iv.hi);
      right.erase_range(iv.lo, iv.hi);
    }
  }
  /// Per byte, the pair the two-sided store must hold.
  std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>> bytes()
      const {
    const auto l = owner_bytes(left), r = owner_bytes(right);
    std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>> out;
    for (const auto& [b, sid] : l) {
      const auto it = r.find(b);
      out[b] = {sid, it == r.end() ? 0 : it->second};
    }
    for (const auto& [b, sid] : r) {
      if (l.find(b) == l.end()) out[b] = {0, sid};
    }
    return out;
  }
};

/// One random op (single or run form) on the two-sided store, the two-slot
/// model and the one-sided twins.  Writes store a pair with distinct slots
/// so that later reads resolve the two sides from different owners.
void random_pair_op(Xoshiro256& rng, ReaderStore& t, ByteModel& m,
                    OneSidedTwins& twins, const std::vector<Iv>& r,
                    std::uint64_t sid, std::vector<Ev>* ev_t,
                    std::vector<Ev>* ev_m) {
  auto log_t = [ev_t, &t](char tag) {
    return [ev_t, &t, tag](auto lo, auto hi, const ReaderPair& p) {
      ev_t->push_back({tag, lo, hi, slot_key(t, p)});
    };
  };
  auto resolve_t = [ev_t, &t](const ReaderPair& p, const ReaderPair& a) {
    ev_t->push_back({'r', slot_key(t, p), sid_of(t, a.left), 0});
    ReaderPair out = p;
    if (left_wins(sid_of(t, p.left), sid_of(t, a.left))) out.left = a.left;
    if (right_wins(sid_of(t, p.right), sid_of(t, a.right))) {
      out.right = a.right;
    }
    return out;
  };
  const bool run = r.size() > 1 || rng.next_below(2) == 0;
  switch (rng.next_below(5)) {
    case 0: {
      const std::uint64_t rs = sid + 1 + rng.next_below(3);
      if (run) {
        t.insert_writer_run(r.data(), r.size(), pair_of(t, sid, rs),
                            log_t('w'));
      } else {
        t.insert_writer(r[0].lo, r[0].hi, pair_of(t, sid, rs), log_t('w'));
      }
      for (const Iv& iv : r) m.write(iv.lo, iv.hi, sid, ev_m, rs);
      twins.write(r, sid, rs);
      break;
    }
    case 1:
    case 2:
      if (run) {
        t.insert_reader_run(r.data(), r.size(), pair_of(t, sid, sid),
                            resolve_t);
      } else {
        t.insert_reader(r[0].lo, r[0].hi, pair_of(t, sid, sid), resolve_t);
      }
      for (const Iv& iv : r) m.read_pair(iv.lo, iv.hi, sid, ev_m);
      twins.read(r, sid);
      break;
    case 3:
      if (run) {
        t.query_run(r.data(), r.size(), log_t('q'));
      } else {
        t.query(r[0].lo, r[0].hi, log_t('q'));
      }
      for (const Iv& iv : r) m.query(iv.lo, iv.hi, ev_m);
      break;
    case 4:
      if (run) {
        t.erase_run(r.data(), r.size());
      } else {
        t.erase_range(r[0].lo, r[0].hi);
      }
      for (const Iv& iv : r) m.erase(iv.lo, iv.hi);
      twins.erase(r);
      break;
  }
}

/// Drives `steps` random two-sided ops, a quarter of them at the top of the
/// address space, checking events after every op and the segments and the
/// per-byte pairs every `every` ops.
void pair_differential(std::uint64_t seed, int steps, int every,
                       std::vector<Iv> (*next_run)(Xoshiro256&)) {
  Xoshiro256 rng(seed);
  ReaderStore t;
  ByteModel m;
  OneSidedTwins twins;
  std::vector<Ev> ev_t, ev_m;
  for (int step = 0; step < steps; ++step) {
    auto r = next_run(rng);
    if (rng.next_below(4) == 0) r = at_top(r);
    random_pair_op(rng, t, m, twins, r, 2 + std::uint64_t(step) % 89, &ev_t,
                   &ev_m);
    ASSERT_EQ(ev_t, ev_m) << "seed=" << seed << " step=" << step;
    if (step % every == 0 || step + 1 == steps) {
      ASSERT_TRUE(t.check_invariants()) << "seed=" << seed << " @" << step;
      ASSERT_EQ(contents(t), m.segments()) << "seed=" << seed << " @" << step;
      ASSERT_EQ(pair_bytes(t), twins.bytes())
          << "seed=" << seed << " @" << step;
    }
  }
}

}  // namespace

TEST(ReaderStore, ReaderInsertKeepsBothExtremes) {
  // Three readers over one range: each slot keeps its own extreme, and a
  // piece coalesces with its neighbour only when both slots agree.
  ReaderStore t;
  auto resolve = [&](const ReaderPair& p, const ReaderPair& a) {
    ReaderPair out = p;
    if (sid_of(t, a.left) < sid_of(t, p.left)) {
      out.left = a.left;  // smaller = left
    }
    if (sid_of(t, a.right) > sid_of(t, p.right)) {
      out.right = a.right;  // larger = right
    }
    return out;
  };
  t.insert_reader(10, 19, pair_of(t, 5, 5), resolve);
  t.insert_reader(0, 14, pair_of(t, 3, 3), resolve);
  t.insert_reader(12, 29, pair_of(t, 7, 7), resolve);
  EXPECT_EQ(contents(t), (std::vector<Seg>{{0, 9, 3, 3},
                                           {10, 11, 3, 5},
                                           {12, 14, 3, 7},
                                           {15, 19, 5, 7},
                                           {20, 29, 7, 7}}));
  EXPECT_TRUE(t.check_invariants());
}

TEST(ReaderStoreDifferential, EveryOpMatchesTheTwoSlotModel) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    pair_differential(seed, 2000, 100, [](Xoshiro256& rng) {
      const std::uint64_t span = 1 << 14;
      return rng.next_below(3) == 0 ? make_run(rng, span, 24, 6, 40)
                                    : make_run(rng, span, 6, 48, 3);
    });
  }
}

TEST(ReaderStoreDifferential, WideCarvesMatchTheTwoSlotModel) {
  // Carves spanning many leaves, and erases unlinking them.
  for (std::uint64_t seed = 11; seed <= 13; ++seed) {
    pair_differential(seed, 500, 50, [](Xoshiro256& rng) {
      return rng.next_below(4) == 0 ? make_run(rng, 1 << 13, 2, 1500, 400)
                                    : make_run(rng, 1 << 13, 40, 3, 12);
    });
  }
}

TEST(ReaderStore, FootprintStaysUnderTwoTreapNodes) {
  // A two-sided segment holds what two one-sided segments held in the
  // paper's two reader treaps, so its bar is two 88-byte treap nodes less
  // a margin; the one-sided bar above stays as it is.  The tree's own bytes
  // (measured 26.5 and 31.2 per segment; 26.0 for fft's bit-reversed
  // growth) have bars of their own.
  constexpr double kTwoSidedBar = 160.0;
  constexpr double kTwoSidedTreeBar = 39.0;
  constexpr double kTwoSidedFftTreeBar = 27.5;
  ReaderStore ascending, scattered;
  const std::uint64_t n = 64 * B;
  for (std::uint64_t i = 0; i < n; ++i) {
    ascending.insert_writer(i * 10, i * 10 + 3,
                            pair_of(ascending, i + 1, i + 2), noop);
  }
  Xoshiro256 rng(5);
  std::vector<std::uint64_t> order(n);
  for (std::uint64_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  for (std::uint64_t i : order) {
    scattered.insert_writer(i * 10, i * 10 + 3,
                            pair_of(scattered, i + 1, i + 2), noop);
  }
  for (const ReaderStore* t : {&ascending, &scattered}) {
    ASSERT_EQ(t->size(), n);
    EXPECT_LT(double(t->node_bytes()) / double(t->size()), kTwoSidedBar);
    EXPECT_LT(double(t->node_bytes() - t->table().bytes()) / double(t->size()),
              kTwoSidedTreeBar);
  }
  ReaderStore fft;
  // Ascending appends fill inner nodes as they fill leaves: a node the
  // appends pass stays full, so every level holds full nodes and one last
  // partial one (an even split would leave them at 16-17 of 32 children).
  IntervalStore deep;
  constexpr std::uint64_t F = IntervalStore::kFan;
  const std::uint64_t leaves = 2 * F * F + 5;
  fill(deep, leaves * B);
  EXPECT_TRUE(deep.check_invariants());
  EXPECT_EQ(deep.leaf_count(), leaves);
  std::size_t want = 0;
  for (std::uint64_t n = leaves; n > 1;) {
    n = (n + F - 1) / F;
    want += n;
  }
  EXPECT_EQ(deep.inner_count(), want);
  fft_fill(fft, 8, 16);
  ASSERT_EQ(fft.size(), 256u * 16u);
  EXPECT_TRUE(fft.check_invariants());
  EXPECT_LT(double(fft.node_bytes()) / double(fft.size()), kTwoSidedBar);
  EXPECT_LT(double(fft.node_bytes() - fft.table().bytes()) /
                double(fft.size()),
            kTwoSidedFftTreeBar);
}

// ---------------------------------------------------------------------------
// Accessor table
// ---------------------------------------------------------------------------

TEST(AccessorTable, InternReusesTheLastEntryOfTheSameSubRecord) {
  IntervalStore t;
  Accessor a = acc(7);
  const Handle h = t.intern(a);
  EXPECT_EQ(t.intern(a), h);  // the per-interval path: one entry
  a.lsid = 3;                 // the strand's next sub-record
  const Handle g = t.intern(a);
  EXPECT_NE(g, h);
  EXPECT_EQ(t.table()[g].lsid, 3u);
  EXPECT_EQ(t.table()[h].lsid, 0u);
  EXPECT_EQ(t.table().size(), 2u);
}

TEST(AccessorTable, CompactionBoundsTheTableAndKeepsTheContents) {
  // 10,000 strands over one 64-byte region: the stores keep at most 64
  // segments, while each strand adds an accessor.  The tables compact
  // instead of growing with the run.
  IntervalStore writer;
  ReaderStore reader;
  EXPECT_GE(test::drive_compaction(writer, 10000, 64, 1), 2u);
  EXPECT_TRUE(writer.check_invariants());
  EXPECT_GE(test::drive_compaction(reader, 10000, 64, 1), 2u);
  EXPECT_TRUE(reader.check_invariants());
}
