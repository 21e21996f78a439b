#pragma once

// Interval access-history store: a B+-tree of disjoint byte segments
// (DESIGN.md §15).
//
// Stores disjoint, inclusive byte intervals [lo, hi], each owned by one
// payload: a 4-byte handle of an accessor (a strand's reachability label +
// id), or PINT's (left-most, right-most) pair of reader handles; handles
// index the store's own AccessorTable (below).  This is the structure the
// paper calls the interval treap; the segment-level behaviour is the treap's,
// only the layout differs (DESIGN.md §3).  Three mutation flavors match the
// roles a store plays:
//
//  * insert_writer  - "last writer" semantics: every overlapped segment is
//    reported to a callback (race check), then the new accessor replaces the
//    overlap exactly; partially-overlapped old intervals are truncated, e.g.
//    {[1,4]:u, [6,10]:v} + write [3,7]:w  =>  {[1,2]:u, [3,7]:w, [8,10]:v}.
//  * insert_reader  - "relevant reader" semantics: each overlapped segment
//    takes the payload a resolver picks from the previous and the new one
//    (series => new; parallel => left/right-most by English order); gaps
//    inside [lo, hi] always take the new payload, and adjacent pieces of
//    the SAME call with the same owners in every slot coalesce.
//  * erase_range    - clears [lo, hi] (stack-frame clearing at spawned
//    function return, and freed heap ranges; paper §III-F).
//
// Callers intern an accessor once (intern) and pass its handle as the
// payload; callbacks and resolvers see handles and read the accessors from
// table().  An accessor is interned once per (sid, lsid), so "same owner"
// is plain handle equality.
//
// Layout.  Leaves hold up to kLeaf segments, sorted, as three parallel
// arrays (lo[], hi[], who[]): the in-leaf search reads only hi[].  Internal
// nodes hold up to kFan children and kFan-1 separator keys.  Separator
// invariant, for child c of a node with keys k:
//
//     every segment under c has  lo >= k[c-1]  and  hi < k[c]
//
// so a separator sits after the last byte on its left and at or before the
// first byte on its right.  Descending by x (child = number of keys <= x)
// therefore reaches the one leaf where the first segment ending at or after
// x lives, unless that segment opens the next leaf.  Deletion is relaxed:
// an emptied node is unlinked, a leaf under a quarter full merges into a
// sibling of the same parent, and nothing else rebalances.
//
// Each operation is a carve: descend to the leaf of `lo`, walk forward
// collecting the overlapped segments, emit the callbacks in address order,
// then write the replacement pieces in place (splitting, shifting into a
// sibling, or unlinking leaves as needed).  The *_run forms apply a sorted
// run one interval at a time through a leaf finger: the next interval
// reuses the current leaf when it falls inside it and otherwise re-descends
// from the lowest ancestor that covers it.  A run is therefore exactly its
// per-interval loop, event for event and segment for segment.
//
// The store is strictly sequential - in PINT each instance is owned by one
// history worker; in STINT everything runs on one thread (paper §III-C).

#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <vector>

#include "reach/depa.hpp"
#include "support/assert.hpp"

namespace pint::store {

using addr_t = std::uint64_t;

/// Persistent identity of an interval's accessor. Kept in the store's
/// accessor table after the transient strand record is recycled (a DePa
/// label is a value; its frozen path chunks live as long as the engine).
struct Accessor {
  reach::Engine::Label label;
  std::uint64_t sid = 0;  // strand id, for reporting and self-access checks
  const char* tag = nullptr;  // optional task name, surfaced in race reports
  std::uint32_t lsid = 0;     // interned lockset held during the accesses
};

/// A store's reference to an accessor: an index into its AccessorTable.
using Handle = std::uint32_t;

/// Two-sided reader payload: the left-most and the right-most reader of a
/// segment, the per-byte contents of the paper's two reader treaps.  Two
/// pairs have the same owners exactly when their handles are equal.
struct ReaderPair {
  Handle left, right;
  bool operator==(const ReaderPair&) const = default;
};

/// Calls f(h) on each handle slot of a payload.
template <class F>
void for_each_handle(Handle& h, F&& f) {
  f(h);
}
template <class F>
void for_each_handle(ReaderPair& p, F&& f) {
  f(p.left);
  f(p.right);
}

/// The accessors a store's handles refer to (DESIGN.md §15.2): an
/// append-only vector owned by one store, so as single-threaded as it.
/// intern() hands out one handle per (sid, lsid): the history layer interns
/// each strand sub-record just before its insert runs and never again, and
/// a repeat of the last entry's (sid, lsid) reuses that entry.
///
/// Bounded memory: the table must not outgrow its store, e.g. when many
/// strands rewrite one counter.  When an intern would append to a table
/// holding more than twice the store's live handle slots plus kFloor
/// entries, the store's live handles are first remapped into a fresh table
/// in one walk.  That is O(1) amortized per intern and keeps the table
/// O(segments).
class AccessorTable {
 public:
  static constexpr std::size_t kFloor = 4096;

  const Accessor& operator[](Handle h) const { return entries_[h]; }
  std::size_t size() const { return entries_.size(); }
  std::size_t bytes() const { return entries_.capacity() * sizeof(Accessor); }

  /// Handle for `a`.  `live` is the number of handle slots the store holds;
  /// walk(fn) must call fn(Handle&) on each of them.
  template <class Walk>
  Handle intern(const Accessor& a, std::size_t live, Walk&& walk) {
    if (!entries_.empty() && entries_.back().sid == a.sid &&
        entries_.back().lsid == a.lsid) {
      return Handle(entries_.size() - 1);
    }
    if (entries_.size() > 2 * live + kFloor) compact(walk);
    PINT_CHECK(entries_.size() < std::size_t(~Handle(0)));
    entries_.push_back(a);
    return Handle(entries_.size() - 1);
  }

 private:
  template <class Walk>
  void compact(Walk& walk) {
    constexpr Handle kUnmapped = ~Handle(0);
    std::vector<Handle> to(entries_.size(), kUnmapped);
    std::vector<Accessor> kept;
    walk([&](Handle& h) {
      if (to[h] == kUnmapped) {
        to[h] = Handle(kept.size());
        kept.push_back(entries_[h]);
      }
      h = to[h];
    });
    entries_.swap(kept);
  }

  std::vector<Accessor> entries_;
};

template <class P>
class BasicIntervalStore {
 public:
  using Payload = P;
  static constexpr std::uint32_t kLeaf = 16;  // segments per leaf
  static constexpr std::uint32_t kFan = 32;   // children per internal node
  static constexpr std::size_t kSlots = sizeof(P) / sizeof(Handle);

  BasicIntervalStore() = default;
  BasicIntervalStore(const BasicIntervalStore&) = delete;
  BasicIntervalStore& operator=(const BasicIntervalStore&) = delete;

  /// The handle of `a` in this store's table (AccessorTable::intern).
  Handle intern(const Accessor& a) {
    return table_.intern(a, segs_ * kSlots, [this](auto&& fn) {
      if (root_ != nullptr) remap_node(root_, 0, fn);
    });
  }
  const AccessorTable& table() const { return table_; }

  /// Invokes cb(seg_lo, seg_hi, payload) for every stored segment
  /// overlapping [lo, hi], trimmed to it, in address order. Non-mutating.
  template <class F>
  void query(addr_t lo, addr_t hi, F&& cb) const {
    const Span one{lo, hi};
    query_run(&one, 1, cb);
  }

  /// Last-writer insert: cb(seg_lo, seg_hi, prev_payload) per overlap, then
  /// [lo, hi] is owned by `a`.
  template <class F>
  void insert_writer(addr_t lo, addr_t hi, const P& a, F&& cb) {
    const Span one{lo, hi};
    apply_run<Op::kWrite>(&one, 1, a, cb);
  }

  /// Reader insert: each overlapped segment takes `resolve(prev, a)`, the
  /// payload that replaces `prev`; gaps take `a`.  Adjacent result pieces
  /// with the same owners are coalesced.
  template <class R>
  void insert_reader(addr_t lo, addr_t hi, const P& a, R&& resolve) {
    const Span one{lo, hi};
    apply_run<Op::kRead>(&one, 1, a, resolve);
  }

  /// Removes all coverage of [lo, hi], truncating boundary intervals.
  void erase_range(addr_t lo, addr_t hi) {
    const Span one{lo, hi};
    erase_run(&one, 1);
  }

  // --- Sorted-run apply (DESIGN.md §10) ------------------------------------
  //
  // Each *_run operation takes a run of k intervals - sorted by lo, pairwise
  // non-overlapping (adjacency allowed), all owned by one payload, exactly
  // the shape of a finalized strand record list - and applies it through
  // the leaf finger.  Callbacks, resolver calls and the resulting segments
  // are those of the per-interval loop; reader coalescing never crosses an
  // interval boundary.

  template <class Iv, class F>
  void query_run(const Iv* iv, std::size_t k, F&& cb) const {
    if (k == 0 || root_ == nullptr) return;
    assert_run_sorted(iv, k);
    Cursor c{};
    descend(&c, iv[0].lo);
    for (std::size_t x = 0; x < k; ++x) {
      if (x > 0) reposition(&c, iv[x].lo);
      query_at(&c, iv[x].lo, iv[x].hi, cb);
    }
  }

  template <class Iv, class F>
  void insert_writer_run(const Iv* iv, std::size_t k, const P& a, F&& cb) {
    apply_run<Op::kWrite>(iv, k, a, cb);
  }

  template <class Iv, class R>
  void insert_reader_run(const Iv* iv, std::size_t k, const P& a,
                         R&& resolve) {
    apply_run<Op::kRead>(iv, k, a, resolve);
  }

  template <class Iv>
  void erase_run(const Iv* iv, std::size_t k) {
    auto no_events = [](addr_t, addr_t, const P&) {};
    apply_run<Op::kErase>(iv, k, P{}, no_events);
  }

  bool empty() const {
    return root_ == nullptr || (height_ == 0 && as_leaf(root_)->n == 0);
  }
  std::size_t size() const { return segs_; }

  /// Bytes held by live nodes (leaves + internal nodes) and the accessor
  /// table, for footprint accounting: node_bytes() / size() is the
  /// per-segment cost.
  std::size_t node_bytes() const {
    return leaves_.live() * sizeof(Leaf) + inners_.live() * sizeof(Inner) +
           table_.bytes();
  }
  /// Live leaves and internal nodes (fill accounting).
  std::size_t leaf_count() const { return leaves_.live(); }
  std::size_t inner_count() const { return inners_.live(); }

  /// In-order traversal of all stored intervals: cb(lo, hi, payload).
  template <class F>
  void for_each(F&& cb) const {
    if (root_ != nullptr) for_each_node(root_, 0, cb);
  }

  /// Verifies the B+-tree invariants: uniform leaf depth, node occupancy
  /// (no empty node except an empty root leaf), strictly increasing
  /// separators, every segment inside its separator bounds, globally
  /// sorted, non-empty, pairwise disjoint segments, the segment count, and
  /// every handle inside the table.
  bool check_invariants() const {
    if (root_ == nullptr) return height_ == 0 && segs_ == 0;
    Bounds b;
    return check_node(root_, 0, b) && b.count == segs_;
  }

 private:
  static constexpr int kMaxDepth = 12;        // > log_16(any reachable size)

  enum class Op { kWrite, kRead, kErase };

  struct Span {
    addr_t lo, hi;
  };
  struct Seg {
    addr_t lo, hi;
    P who;
  };
  struct Leaf {
    addr_t lo[kLeaf];
    addr_t hi[kLeaf];
    P who[kLeaf];
    std::uint32_t n = 0;
  };
  struct Inner {
    addr_t key[kFan - 1];
    void* child[kFan];
    std::uint32_t n = 0;  // children
  };
  static_assert(std::is_trivially_copyable_v<P>);
  static_assert(kSlots * sizeof(Handle) == sizeof(P));

  /// Root-to-leaf path: path[d] is the internal node at depth d and the
  /// index of the child taken there.
  struct Step {
    Inner* node;
    std::uint32_t idx;
  };
  struct Cursor {
    Step path[kMaxDepth];
    Leaf* leaf;
  };

  /// Fixed-size node pool.  Chunks of kChunk nodes come from
  /// ::operator new and are freed wholesale when the store dies; released
  /// nodes wait on a free list.
  template <class T>
  class Pool {
   public:
    Pool() = default;
    Pool(const Pool&) = delete;
    Pool& operator=(const Pool&) = delete;
    ~Pool() {
      for (T* c : chunks_) ::operator delete(c);
    }
    T* take() {
      T* t;
      if (!free_.empty()) {
        t = free_.back();
        free_.pop_back();
      } else {
        if (used_ == kChunk) {
          chunks_.push_back(static_cast<T*>(::operator new(kBytes)));
          used_ = 0;
        }
        t = chunks_.back() + used_++;
      }
      return ::new (t) T;
    }
    void give(T* t) { free_.push_back(t); }
    std::size_t live() const {
      return chunks_.size() * kChunk - (kChunk - used_) - free_.size();
    }

   private:
    static_assert(std::is_trivially_destructible_v<T>);
    static constexpr std::size_t kChunk = 32;
    static constexpr std::size_t kBytes = sizeof(T) * kChunk;
    std::vector<T*> chunks_;
    std::vector<T*> free_;
    std::size_t used_ = kChunk;
  };

  static Leaf* as_leaf(void* p) { return static_cast<Leaf*>(p); }
  static const Leaf* as_leaf(const void* p) {
    return static_cast<const Leaf*>(p);
  }
  static Inner* as_inner(void* p) { return static_cast<Inner*>(p); }
  static const Inner* as_inner(const void* p) {
    return static_cast<const Inner*>(p);
  }

  template <class Iv>
  static void assert_run_sorted(const Iv* iv, std::size_t k) {
#ifndef NDEBUG
    for (std::size_t j = 0; j < k; ++j) {
      PINT_ASSERT(iv[j].lo <= iv[j].hi);
      if (j > 0) PINT_ASSERT(iv[j - 1].hi < iv[j].lo);
    }
#else
    (void)iv;
    (void)k;
#endif
  }

  // --- Search ---------------------------------------------------------------

  /// Child of `in` whose separator range holds x (number of keys <= x).
  static std::uint32_t child_for(const Inner* in, addr_t x) {
    std::uint32_t idx = 0;
    for (std::uint32_t k = 0; k + 1 < in->n; ++k) idx += in->key[k] <= x;
    return idx;
  }

  /// Index of the first segment of L with hi >= x (L->n if none).
  static std::uint32_t first_ending_at_or_after(const Leaf* L, addr_t x) {
    std::uint32_t idx = 0;
    for (std::uint32_t k = 0; k < L->n; ++k) idx += L->hi[k] < x;
    return idx;
  }

  void descend(Cursor* c, addr_t x) const { descend_from(c, 0, root_, x); }

  void descend_from(Cursor* c, int d, void* node, addr_t x) const {
    for (; d < height_; ++d) {
      Inner* in = as_inner(node);
      const std::uint32_t idx = child_for(in, x);
      c->path[d] = {in, idx};
      node = in->child[idx];
    }
    c->leaf = as_leaf(node);
  }

  /// Moves the finger to the leaf of x, given x is at or after the current
  /// leaf's lower separator: climbs to the deepest level whose current
  /// child still covers x and re-descends from there.
  void reposition(Cursor* c, addr_t x) const {
    int d = height_ - 1;
    for (; d >= 0; --d) {
      const Step& s = c->path[d];
      if (s.idx + 1 < s.node->n && x < s.node->key[s.idx]) break;
    }
    if (d == height_ - 1) return;  // still inside the current leaf
    void* from = d < 0 ? root_ : c->path[d].node->child[c->path[d].idx];
    descend_from(c, d + 1, from, x);
  }

  /// Steps the cursor to the next leaf in address order; false at the end.
  bool next_leaf(Cursor* c) const {
    for (int d = height_ - 1; d >= 0; --d) {
      Step& s = c->path[d];
      if (s.idx + 1 < s.node->n) {
        ++s.idx;
        void* node = s.node->child[s.idx];
        for (int e = d + 1; e < height_; ++e) {
          c->path[e] = {as_inner(node), 0};
          node = as_inner(node)->child[0];
        }
        c->leaf = as_leaf(node);
        return true;
      }
    }
    return false;
  }

  /// The separator right of the cursor's leaf (null for the last leaf):
  /// it lives in the deepest ancestor where the path is not rightmost.
  addr_t* right_separator(const Cursor& c) const {
    for (int d = height_ - 1; d >= 0; --d) {
      const Step& s = c.path[d];
      if (s.idx + 1 < s.node->n) return &s.node->key[s.idx];
    }
    return nullptr;
  }

  // --- Query ----------------------------------------------------------------

  template <class F>
  void query_at(Cursor* c, addr_t lo, addr_t hi, F& cb) const {
    const Leaf* L = c->leaf;
    std::uint32_t i = first_ending_at_or_after(L, lo);
    for (;;) {
      for (; i < L->n && L->lo[i] <= hi; ++i) {
        cb(L->lo[i] > lo ? L->lo[i] : lo, L->hi[i] < hi ? L->hi[i] : hi,
           L->who[i]);
      }
      const addr_t* rb = right_separator(*c);
      if (i < L->n || rb == nullptr || hi < *rb) return;
      // The range reaches past this leaf.  Commit the finger to the next
      // leaf only if it overlaps: the finger must never pass the next
      // interval's lo.
      Cursor n = *c;
      if (!next_leaf(&n) || n.leaf->lo[0] > hi) return;
      *c = n;
      L = c->leaf;
      i = 0;
    }
  }

  // --- Carve ----------------------------------------------------------------

  template <Op op, class Iv, class F>
  void apply_run(const Iv* iv, std::size_t k, const P& a, F& f) {
    if (k == 0) return;
    if (root_ == nullptr) {
      if (op == Op::kErase) return;
      root_ = leaves_.take();
    }
    assert_run_sorted(iv, k);
    Cursor c{};
    bool finger = false;
    for (std::size_t x = 0; x < k; ++x) {
      if (finger) {
        reposition(&c, iv[x].lo);
      } else {
        descend(&c, iv[x].lo);
      }
      finger = carve<op>(&c, iv[x].lo, iv[x].hi, a, f);
      if (root_ == nullptr) return;  // an erase emptied the store
    }
    collapse_root();
  }

  /// Applies one interval at the cursor's leaf.  Returns whether the cursor
  /// is still valid (false after any change to the tree's shape).
  template <Op op, class F>
  bool carve(Cursor* c, addr_t lo, addr_t hi, const P& a, F& f) {
    Leaf* L = c->leaf;
    const std::uint32_t i = first_ending_at_or_after(L, lo);
    std::uint32_t j = i;
    gather_.clear();
    for (; j < L->n && L->lo[j] <= hi; ++j) {
      gather_.push_back({L->lo[j], L->hi[j], L->who[j]});
    }
    // Coverage can continue into the following leaves only when it reaches
    // L's end and the right separator.
    std::size_t covered_leaves = 0;
    Leaf* succ = nullptr;
    std::uint32_t succ_drop = 0;
    const addr_t* rb = right_separator(*c);
    const bool spill = j == L->n && rb != nullptr && hi >= *rb;
    if (spill) {
      Cursor n = *c;
      while (next_leaf(&n)) {
        Leaf* R = n.leaf;
        std::uint32_t m = 0;
        for (; m < R->n && R->lo[m] <= hi; ++m) {
          gather_.push_back({R->lo[m], R->hi[m], R->who[m]});
        }
        if (m < R->n) {
          succ = R;
          succ_drop = m;
          break;
        }
        ++covered_leaves;
      }
    }

    // Events in address order, then the pieces replacing L[i, j) and the
    // spilled coverage: left remainder, new coverage, right remainder.
    pieces_.clear();
    if (!gather_.empty() && gather_.front().lo < lo) {
      pieces_.push_back({gather_.front().lo, lo - 1, gather_.front().who});
    }
    if constexpr (op == Op::kWrite) {
      for (const Seg& s : gather_) {
        f(s.lo > lo ? s.lo : lo, s.hi < hi ? s.hi : hi, s.who);
      }
      pieces_.push_back({lo, hi, a});
    } else if constexpr (op == Op::kRead) {
      reader_cover(lo, hi, a, f);
    }
    if (!gather_.empty() && gather_.back().hi > hi) {
      pieces_.push_back({hi + 1, gather_.back().hi, gather_.back().who});
    }
    segs_ += pieces_.size();
    segs_ -= gather_.size();

    if (spill) {
      // Unlink the fully covered leaves (always the one right after L),
      // trim the successor, and pull the separator up to it: everything
      // now left of it ends at or before max(hi, right remainder).
      for (; covered_leaves > 0; --covered_leaves) {
        Cursor n = *c;
        next_leaf(&n);
        remove_leaf(&n);
      }
      if (succ != nullptr) {
        drop_front(succ, succ_drop);
        *right_separator(*c) = succ->lo[0];
      }
    }
    return splice(c, i, j);
  }

  /// Winner cover of [lo, hi] from the gathered overlaps (the treap's
  /// reader rule): gaps take `a`, overlapped parts go through `resolve`,
  /// adjacent same-owner pieces of this call coalesce.
  template <class R>
  void reader_cover(addr_t lo, addr_t hi, const P& a, R& resolve) {
    const std::size_t floor = pieces_.size();  // never merge into the left rem
    addr_t cursor = lo;
    for (const Seg& s : gather_) {
      const addr_t plo = s.lo > lo ? s.lo : lo;
      const addr_t phi = s.hi < hi ? s.hi : hi;
      if (plo > cursor) push_piece(floor, cursor, plo - 1, a);
      push_piece(floor, plo, phi, resolve(s.who, a));
      if (phi == hi) return;  // covered to hi (also avoids the hi+1 wrap)
      cursor = phi + 1;
    }
    push_piece(floor, cursor, hi, a);
  }

  void push_piece(std::size_t floor, addr_t lo, addr_t hi, const P& w) {
    if (pieces_.size() > floor && pieces_.back().who == w &&
        pieces_.back().hi + 1 == lo) {
      pieces_.back().hi = hi;  // coalesce same-winner neighbours
    } else {
      pieces_.push_back({lo, hi, w});
    }
  }

  // --- Leaf editing ---------------------------------------------------------

  static void put(Leaf* L, std::uint32_t k, const Seg& s) {
    L->lo[k] = s.lo;
    L->hi[k] = s.hi;
    L->who[k] = s.who;
  }
  static void put_all(Leaf* L, std::uint32_t at, const Seg* s,
                      std::size_t count) {
    for (std::size_t x = 0; x < count; ++x) put(L, at + std::uint32_t(x), s[x]);
  }
  /// Moves L[src, src+count) to L[dst, dst+count) (ranges may overlap).
  static void shift(Leaf* L, std::uint32_t dst, std::uint32_t src,
                    std::uint32_t count) {
    if (count == 0 || dst == src) return;
    std::memmove(&L->lo[dst], &L->lo[src], count * sizeof(addr_t));
    std::memmove(&L->hi[dst], &L->hi[src], count * sizeof(addr_t));
    std::memmove(&L->who[dst], &L->who[src], count * sizeof(P));
  }
  static void drop_front(Leaf* L, std::uint32_t m) {
    shift(L, 0, m, L->n - m);
    L->n -= m;
  }

  /// Replaces L[i, j) by pieces_.  Returns whether the cursor survives.
  bool splice(Cursor* c, std::uint32_t i, std::uint32_t j) {
    Leaf* L = c->leaf;
    const std::size_t o = pieces_.size();
    const std::size_t n = L->n - (j - i) + o;
    if (n > kLeaf) {
      overflow(c, i, j);
      return false;
    }
    if (n == 0 && height_ > 0) {
      const int d = remove_leaf(c);
      if (d > 0) merge_inner(c, d);
      return false;
    }
    shift(L, i + std::uint32_t(o), j, L->n - j);
    put_all(L, i, pieces_.data(), o);
    L->n = std::uint32_t(n);
    if (n < kLeaf / 4 && height_ > 0) return merge_small(c);
    return true;
  }

  /// L[0, i) + pieces_ + L[j, n) no longer fits one leaf.  Three cases:
  ///  * the pieces land past L's last segment (i == n, an ascending
  ///    append): L is filled up and the rest opens fresh leaves after it;
  ///  * a sibling of the same parent can take part of it and the pair then
  ///    ends at most 3/4 full: the two are balanced;
  ///  * otherwise L splits evenly.
  /// Each case leaves room where the next insert is likely to land.
  /// Balancing into a pair that ends nearly full would leave both leaves
  /// ~15/16 full, and the next insert into either would overflow again.
  void overflow(Cursor* c, std::uint32_t i, std::uint32_t j) {
    Leaf* L = c->leaf;
    if (i == L->n) {
      const std::uint32_t fit = kLeaf - L->n;
      put_all(L, L->n, pieces_.data(), fit);
      L->n = kLeaf;
      spread(nullptr, pieces_.data() + fit, pieces_.size() - fit);
      return;
    }
    stage_.clear();
    for (std::uint32_t k = 0; k < i; ++k) {
      stage_.push_back({L->lo[k], L->hi[k], L->who[k]});
    }
    stage_.insert(stage_.end(), pieces_.begin(), pieces_.end());
    for (std::uint32_t k = j; k < L->n; ++k) {
      stage_.push_back({L->lo[k], L->hi[k], L->who[k]});
    }
    if (height_ > 0 && shift_to_sibling(*c, stage_.size())) return;
    spread(L, stage_.data(), stage_.size());
  }

  /// Writes s[0, total) evenly over as few leaves as hold it: the first
  /// into `first` when given, every other into a fresh leaf linked after
  /// its left neighbour.
  void spread(Leaf* first, const Seg* s, std::size_t total) {
    const std::size_t parts = (total + kLeaf - 1) / kLeaf;
    std::size_t at = 0;
    for (std::size_t p = 0; p < parts; ++p) {
      const std::size_t take = (total - at + (parts - p) - 1) / (parts - p);
      Leaf* dst = p == 0 && first != nullptr ? first : leaves_.take();
      put_all(dst, 0, s + at, take);
      dst->n = std::uint32_t(take);
      if (dst != first) insert_leaf_after(dst);
      at += take;
    }
  }

  /// Balances the staged segments with a sibling of the same parent when
  /// the pair then ends at most 3/4 full.
  bool shift_to_sibling(const Cursor& c, std::size_t total) {
    constexpr std::size_t kPairMax = 2 * kLeaf - kLeaf / 2;
    Inner* U = c.path[height_ - 1].node;
    const std::uint32_t idx = c.path[height_ - 1].idx;
    Leaf* L = c.leaf;
    if (idx + 1 < U->n) {
      Leaf* R = as_leaf(U->child[idx + 1]);
      if (total + R->n <= kPairMax) {
        const std::size_t keep = (total + R->n + 1) / 2;
        const std::uint32_t moved = std::uint32_t(total - keep);
        shift(R, moved, 0, R->n);
        put_all(R, 0, stage_.data() + keep, moved);
        R->n += moved;
        put_all(L, 0, stage_.data(), keep);
        L->n = std::uint32_t(keep);
        U->key[idx] = R->lo[0];
        return true;
      }
    }
    if (idx > 0) {
      Leaf* S = as_leaf(U->child[idx - 1]);
      if (total + S->n <= kPairMax) {
        const std::size_t keep = (total + S->n) / 2;
        const std::size_t moved = total - keep;
        put_all(S, S->n, stage_.data(), moved);
        S->n += std::uint32_t(moved);
        put_all(L, 0, stage_.data() + moved, keep);
        L->n = std::uint32_t(keep);
        U->key[idx - 1] = L->lo[0];
        return true;
      }
    }
    return false;
  }

  /// Folds an under-quarter-full leaf into a sibling of the same parent when
  /// the two fit in three quarters of a leaf, then lets the parent fold the
  /// same way (merge_inner).  Returns whether the cursor survives (it does
  /// when the right sibling folds into L and no inner node folds).
  bool merge_small(Cursor* c) {
    constexpr std::uint32_t kFoldMax = kLeaf - kLeaf / 4;
    Inner* U = c->path[height_ - 1].node;
    const std::uint32_t idx = c->path[height_ - 1].idx;
    Leaf* L = c->leaf;
    if (idx + 1 < U->n) {
      Leaf* R = as_leaf(U->child[idx + 1]);
      if (L->n + R->n <= kFoldMax) {
        append(L, R);
        remove_child(U, idx + 1);
        leaves_.give(R);
        return merge_inner(c, height_ - 1);
      }
    }
    if (idx > 0) {
      Leaf* S = as_leaf(U->child[idx - 1]);
      if (S->n + L->n <= kFoldMax) {
        append(S, L);
        remove_child(U, idx);
        leaves_.give(L);
        merge_inner(c, height_ - 1);
        return false;
      }
    }
    return true;
  }

  /// The inner-node analogue, from path[d] upward: an under-quarter-full
  /// node folds into a sibling of the same parent when the two fit in three
  /// quarters of a node, and then its parent may fold in turn.  Without it
  /// erases that thin the tree leave chains of one-child nodes behind.
  /// Returns whether no node folded (the cursor's path is unchanged).
  bool merge_inner(Cursor* c, int d) {
    constexpr std::uint32_t kFoldMax = kFan - kFan / 4;
    bool same = true;
    for (; d > 0 && c->path[d].node->n <= kFan / 4; --d) {
      Inner* U = c->path[d].node;
      Inner* G = c->path[d - 1].node;
      const std::uint32_t gi = c->path[d - 1].idx;
      Inner* R = gi + 1 < G->n ? as_inner(G->child[gi + 1]) : nullptr;
      Inner* S = gi > 0 ? as_inner(G->child[gi - 1]) : nullptr;
      if (R != nullptr && U->n + R->n <= kFoldMax) {
        append(U, G->key[gi], R);
        remove_child(G, gi + 1);
        inners_.give(R);
      } else if (S != nullptr && S->n + U->n <= kFoldMax) {
        append(S, G->key[gi - 1], U);
        remove_child(G, gi);
        inners_.give(U);
      } else {
        break;
      }
      same = false;
    }
    return same;
  }

  /// Appends src's children to dst; `sep` separates the two ranges.
  static void append(Inner* dst, addr_t sep, const Inner* src) {
    dst->key[dst->n - 1] = sep;
    std::memcpy(&dst->key[dst->n], src->key, (src->n - 1) * sizeof(addr_t));
    std::memcpy(&dst->child[dst->n], src->child, src->n * sizeof(void*));
    dst->n += src->n;
  }

  static void append(Leaf* dst, const Leaf* src) {
    std::memcpy(&dst->lo[dst->n], src->lo, src->n * sizeof(addr_t));
    std::memcpy(&dst->hi[dst->n], src->hi, src->n * sizeof(addr_t));
    std::memcpy(&dst->who[dst->n], src->who, src->n * sizeof(P));
    dst->n += src->n;
  }

  // --- Structure ------------------------------------------------------------

  /// Links a freshly filled leaf N right after the leaf whose separator
  /// range holds N's first byte (its left neighbour in address order).
  void insert_leaf_after(Leaf* N) {
    if (height_ == 0) {
      Inner* r = inners_.take();
      r->n = 2;
      r->child[0] = root_;
      r->child[1] = N;
      r->key[0] = N->lo[0];
      root_ = r;
      height_ = 1;
      return;
    }
    Cursor t{};
    descend(&t, N->lo[0]);
    insert_child(&t, height_ - 1, N->lo[0], N);
  }

  /// Inserts `child` right after path[d]'s child, separated by `key`,
  /// splitting full nodes upward.  A full node splits evenly, except when
  /// the new child lands past its last one (an ascending append, as at a
  /// leaf): then it stays full and the new node starts with that child.
  void insert_child(Cursor* c, int d, addr_t key, void* child) {
    Inner* N = c->path[d].node;
    const std::uint32_t pos = c->path[d].idx + 1;
    const std::uint32_t n = N->n;
    if (n < kFan) {
      std::memmove(&N->child[pos + 1], &N->child[pos],
                   (n - pos) * sizeof(void*));
      std::memmove(&N->key[pos], &N->key[pos - 1], (n - pos) * sizeof(addr_t));
      N->child[pos] = child;
      N->key[pos - 1] = key;
      N->n = n + 1;
      return;
    }
    addr_t keys[kFan];
    void* kids[kFan + 1];
    for (std::uint32_t k = 0, s = 0; k <= kFan; ++k) {
      kids[k] = k == pos ? child : N->child[s++];
    }
    for (std::uint32_t k = 0, s = 0; k < kFan; ++k) {
      keys[k] = k == pos - 1 ? key : N->key[s++];
    }
    const std::uint32_t h = pos == kFan ? kFan : (kFan + 1) / 2;  // kept in N
    Inner* M = inners_.take();
    N->n = h;
    std::memcpy(N->child, kids, h * sizeof(void*));
    std::memcpy(N->key, keys, (h - 1) * sizeof(addr_t));
    M->n = kFan + 1 - h;
    std::memcpy(M->child, kids + h, M->n * sizeof(void*));
    std::memcpy(M->key, keys + h, (M->n - 1) * sizeof(addr_t));
    const addr_t up = keys[h - 1];
    if (d > 0) {
      insert_child(c, d - 1, up, M);
      return;
    }
    PINT_CHECK(height_ + 1 < kMaxDepth);
    Inner* r = inners_.take();
    r->n = 2;
    r->child[0] = N;
    r->child[1] = M;
    r->key[0] = up;
    root_ = r;
    ++height_;
  }

  /// Removes child idx and the separator beside it.  Neighbouring ranges
  /// widen over the removed one, which keeps every bound valid.
  static void remove_child(Inner* in, std::uint32_t idx) {
    const std::uint32_t n = in->n;
    if (n > 1) {
      const std::uint32_t kd = idx > 0 ? idx - 1 : 0;
      std::memmove(&in->key[kd], &in->key[kd + 1],
                   (n - 2 - kd) * sizeof(addr_t));
    }
    std::memmove(&in->child[idx], &in->child[idx + 1],
                 (n - 1 - idx) * sizeof(void*));
    in->n = n - 1;
  }

  /// Unlinks and frees the cursor's leaf and every ancestor it empties.
  /// Returns the depth of the ancestor that lost a child and survived, or
  /// -1 when the store emptied.
  int remove_leaf(Cursor* c) {
    leaves_.give(c->leaf);
    for (int d = height_ - 1; d >= 0; --d) {
      Inner* in = c->path[d].node;
      remove_child(in, c->path[d].idx);
      if (in->n > 0) return d;
      inners_.give(in);
    }
    root_ = nullptr;
    height_ = 0;
    return -1;
  }

  void collapse_root() {
    while (height_ > 0 && as_inner(root_)->n == 1) {
      Inner* r = as_inner(root_);
      root_ = r->child[0];
      inners_.give(r);
      --height_;
    }
  }

  // --- Traversal and checks -------------------------------------------------

  template <class F>
  void for_each_node(const void* node, int depth, F& cb) const {
    if (depth == height_) {
      const Leaf* L = as_leaf(node);
      for (std::uint32_t k = 0; k < L->n; ++k) {
        cb(L->lo[k], L->hi[k], L->who[k]);
      }
      return;
    }
    const Inner* in = as_inner(node);
    for (std::uint32_t k = 0; k < in->n; ++k) {
      for_each_node(in->child[k], depth + 1, cb);
    }
  }

  /// Remaps every handle slot under `node` through fn (table compaction).
  template <class F>
  void remap_node(void* node, int depth, F& fn) {
    if (depth == height_) {
      Leaf* L = as_leaf(node);
      for (std::uint32_t k = 0; k < L->n; ++k) for_each_handle(L->who[k], fn);
      return;
    }
    Inner* in = as_inner(node);
    for (std::uint32_t k = 0; k < in->n; ++k) {
      remap_node(in->child[k], depth + 1, fn);
    }
  }

  struct Bounds {
    bool has_lb = false, has_ub = false;
    addr_t lb = 0, ub = 0;
    bool first = true;
    addr_t prev_hi = 0;
    std::size_t count = 0;
  };

  bool check_node(const void* node, int depth, Bounds& b) const {
    if (depth == height_) {
      const Leaf* L = as_leaf(node);
      if (L->n > kLeaf || (L->n == 0 && node != root_)) return false;
      for (std::uint32_t k = 0; k < L->n; ++k) {
        if (L->lo[k] > L->hi[k]) return false;
        if (!b.first && L->lo[k] <= b.prev_hi) return false;
        if (b.has_lb && L->lo[k] < b.lb) return false;
        if (b.has_ub && L->hi[k] >= b.ub) return false;
        P who = L->who[k];
        bool known = true;
        for_each_handle(who, [&](Handle h) { known &= h < table_.size(); });
        if (!known) return false;
        b.first = false;
        b.prev_hi = L->hi[k];
        ++b.count;
      }
      return true;
    }
    const Inner* in = as_inner(node);
    if (in->n == 0 || in->n > kFan) return false;
    for (std::uint32_t k = 1; k + 1 < in->n; ++k) {
      if (in->key[k - 1] >= in->key[k]) return false;
    }
    const Bounds outer = b;
    for (std::uint32_t k = 0; k < in->n; ++k) {
      b.has_lb = k > 0 || outer.has_lb;
      b.lb = k > 0 ? in->key[k - 1] : outer.lb;
      b.has_ub = k + 1 < in->n || outer.has_ub;
      b.ub = k + 1 < in->n ? in->key[k] : outer.ub;
      if (!check_node(in->child[k], depth + 1, b)) return false;
    }
    return true;
  }

  void* root_ = nullptr;  // Leaf when height_ == 0, else Inner
  int height_ = 0;        // internal levels above the leaves
  std::size_t segs_ = 0;  // stored segments
  AccessorTable table_;
  Pool<Leaf> leaves_;
  Pool<Inner> inners_;
  std::vector<Seg> gather_;  // overlapped segments of the current carve
  std::vector<Seg> pieces_;  // their replacement
  std::vector<Seg> stage_;   // overflow staging
};

/// One-sided store: the last writer, or STINT's serial reader.
using IntervalStore = BasicIntervalStore<Handle>;
/// Two-sided store: PINT's left-most + right-most reader history.
using ReaderStore = BasicIntervalStore<ReaderPair>;

}  // namespace pint::store
