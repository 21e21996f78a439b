#include "detect/instrument.hpp"

#include <atomic>
#include <cstdlib>

#include "detect/detector.hpp"
#include "detect/types.hpp"
#include "runtime/scheduler.hpp"
#include "support/assert.hpp"

namespace pint {

namespace {

std::atomic<detect::Detector*> g_active{nullptr};

// Global fast-path switch (tests/benchmarks).  Checked only at install time:
// with the knob off no cursor ever becomes installed, so the per-access
// dispatch needs no extra load.
std::atomic<bool> g_fast_path{true};

// dmalloc header: remembers the user size so dfree knows the range to clear.
struct BlockHeader {
  std::size_t user_bytes;
  std::uint64_t magic;
};
constexpr std::uint64_t kBlockMagic = 0xD17EC70BA110CULL;
constexpr std::size_t kHeaderBytes = 16;
static_assert(sizeof(BlockHeader) <= kHeaderBytes);

// ---------------------------------------------------------------------------
// AccessCursor (DESIGN.md §9)
// ---------------------------------------------------------------------------
//
// One per OS thread.  Owned by at most one strand at a time: detectors
// install it when a strand begins executing on this thread and invalidate it
// at the strand's end (spawn / sync / return / steal boundaries).  Between
// those two hook calls the strand cannot migrate - the scheduler only moves
// work at exactly those boundaries - so everything below is single-threaded
// by construction and needs no atomics.
//
// Per lane (reads / writes) the cursor keeps the STINT tail-probing shape
// entirely in cursor storage: one open interval extended in the common case,
// plus a small pending ring standing in for AccessBuffer::kTails streams.
// Only when all of those miss does an interval spill into the strand's
// AccessBuffer: the least-recently-used ring slot goes (a ring hit stamps
// its slot with the lane's raw count), so the hot streams of a GEMM leaf
// outlive its cycling rows, and a spill whose start matches an interval
// spilled earlier extends that interval in place (spill_at below).  Any
// intermediate merge policy yields the same final interval set:
// AccessBuffer::finalize() sort-merges to the minimal disjoint cover when
// the strand is sealed.

// The per-access hit path is a single extension predicate against the open
// interval, so the cursor is laid out around it: the open intervals and raw
// counters for both lanes share the first (64-byte aligned) cache line and
// are indexed directly by `write`; everything rarer lives behind them and is
// only touched by the noinline miss path.
//
// Two sentinel encodings of the open interval keep the hit path free of
// state branches (the predicate is `lo >= open.lo && lo <= open.hi + 1`):
//
//   empty       lo = ~0, hi = ~0 - 1   matches only an access at address ~0,
//                                      which extension then records exactly;
//   never-match lo = 1,  hi = ~0       hi + 1 wraps to 0, so no address
//                                      satisfies both comparisons.
//
// "Never-match" stands in for cursor-not-installed AND for the coalesce-off
// ablation: either way every access falls into the miss path, which sorts
// out which of the two it was.
struct alignas(64) AccessCursor {
  // kPend + the open interval = AccessBuffer::kTails interleaved streams.
  static constexpr unsigned kPend = detect::AccessBuffer::kTails - 1;
  static constexpr unsigned kSpillBits = 7;  // 128 index slots per lane
  static constexpr unsigned kSpillLive = 64;  // entries before a restart

  // --- hot line: open interval + raw counters, indexed by `write` ---
  detect::addr_t lo[2] = {1, 1};
  detect::addr_t hi[2] = {~detect::addr_t(0), ~detect::addr_t(0)};
  std::uint64_t raw[2] = {0, 0};

  // --- miss-path state ---
  std::uint64_t spilled = 0;  // per-access buffer touches; hits = raw - spilled
  // What a lock lane parks besides the open intervals: the buffers the
  // lanes drain into and the pending rings.
  struct Streams {
    detect::AccessBuffer* out[2] = {nullptr, nullptr};
    detect::Interval pend[2][kPend] = {};
    std::uint64_t used[2][kPend] = {};  // raw[lane] at the slot's last hit
    unsigned npend[2] = {0, 0};
  };
  Streams st;
  bool coalesce = true;
  bool installed = false;
  // Same-start spill index: where in out[] an interval with a given start
  // was spilled.  Exact-keyed open addressing (linear probing from a hash
  // of the start), each entry tagged with the lane's index generation: an
  // entry of an older generation reads as empty, so install restarts the
  // index by bumping the generation, with no clearing.  The index also
  // restarts once kSpillLive starts are live, so whether a spill merges
  // depends only on the strand's own spill sequence, never on where the
  // heap put its data or on what earlier strands and runs left here.
  struct SpillEntry {
    detect::addr_t lo = 0;
    std::uint32_t gen = 0;
    std::uint32_t at = 0;
  };
  SpillEntry spill_at[2][1u << kSpillBits] = {};
  std::uint32_t spill_gen[2] = {0, 0};
  unsigned spill_live[2] = {0, 0};

  // --- lock lanes (DESIGN.md §9.1): behind everything the access paths
  // touch.  Slot `cur` is the lane the fields above record into (its
  // parked copy is stale); the others hold a sub-record's parked open
  // intervals and pending rings.
  static constexpr unsigned kLanes = 4;
  static constexpr unsigned kMemoBits = 6;  // 64 transitions
  struct LockLane {
    std::uint32_t lsid = 0;
    std::uint32_t record = 0;  // sub-record index in the strand
    std::uint64_t last = 0;    // `switches` when last made current
    detect::addr_t lo[2] = {};
    detect::addr_t hi[2] = {};
    Streams st;
  };
  LockLane lane[kLanes] = {};
  unsigned nlanes = 0;
  unsigned cur = 0;
  std::uint64_t switches = 0;
  // Transition memo: (lsid, lock, acquire) -> lsid'.  A transition is a
  // pure function of the append-only LocksetTable, so entries stay true
  // across strands, detectors and runs and are never replaced: exact-keyed
  // open addressing, emptied whole once half full.  Whether an event finds
  // its transition therefore depends on the transitions seen, not on where
  // the mutexes live.
  struct Transition {
    detect::addr_t lock = 0;
    std::uint32_t key = 0;  // lsid << 2 | acquire << 1 | 1 (0 = empty)
    std::uint32_t to = 0;
  };
  Transition memo[1u << kMemoBits] = {};
  unsigned nmemo = 0;

  // Multiplicative hash of the 8-byte word an interval starts at.
  static unsigned spill_slot(detect::addr_t lo) {
    return unsigned(((lo >> 3) * 0x9E3779B97F4A7C15ull) >> (64 - kSpillBits));
  }
  static std::uint32_t memo_key(std::uint32_t lsid, bool acquire) {
    return (lsid << 2) | (std::uint32_t(acquire) << 1) | 1u;
  }
  // The entry of (lock, key), or the empty entry where it belongs.
  Transition& memo_slot(detect::addr_t lock, std::uint32_t key) {
    constexpr unsigned kMask = (1u << kMemoBits) - 1;
    const std::uint64_t h =
        (lock ^ (std::uint64_t(key) << 40)) * 0x9E3779B97F4A7C15ull;
    unsigned i = unsigned(h >> (64 - kMemoBits));
    while (memo[i].key != 0 && (memo[i].key != key || memo[i].lock != lock)) {
      i = (i + 1) & kMask;
    }
    return memo[i];
  }

  void set_open_empty(int lane) {
    lo[lane] = ~detect::addr_t(0);
    hi[lane] = ~detect::addr_t(0) - 1;
  }
  void set_never_match(int lane) {
    lo[lane] = 1;
    hi[lane] = ~detect::addr_t(0);
  }
  bool open_empty(int lane) const { return lo[lane] > hi[lane]; }
};

thread_local AccessCursor t_cursor;

void flush_lane(AccessCursor& c, int lane) {
  if (c.st.out[lane] == nullptr) return;
  if (c.coalesce) {
    // In ablation mode open/pend never hold data (never-match sentinel
    // routes every access straight to add_raw), so there is nothing to
    // drain - and the sentinel must not be emitted as an interval.
    if (!c.open_empty(lane)) c.st.out[lane]->add(c.lo[lane], c.hi[lane]);
    for (unsigned i = 0; i < c.st.npend[lane]; ++i) {
      c.st.out[lane]->add(c.st.pend[lane][i].lo, c.st.pend[lane][i].hi);
    }
  }
  c.set_never_match(lane);
  c.st.npend[lane] = 0;
  c.st.out[lane] = nullptr;
}

// The cursor's lanes move between the fields above and a parked lock lane
// as a unit: the open intervals and the Streams block, copied whole (a
// fixed-size copy the compiler turns into a few vector moves, cheaper than
// copying only the live ring entries).
void park(AccessCursor& c) {
  AccessCursor::LockLane& l = c.lane[c.cur];
  l.lo[0] = c.lo[0];
  l.lo[1] = c.lo[1];
  l.hi[0] = c.hi[0];
  l.hi[1] = c.hi[1];
  l.st = c.st;
}

void resume(AccessCursor& c, unsigned idx) {
  AccessCursor::LockLane& l = c.lane[idx];
  c.lo[0] = l.lo[0];
  c.lo[1] = l.lo[1];
  c.hi[0] = l.hi[0];
  c.hi[1] = l.hi[1];
  c.st = l.st;
  c.cur = idx;
  l.last = ++c.switches;
}

// Drains parked lane `idx` into its sub-record by resuming it and flushing
// it as the current lanes (the lane that was current must be parked).
void drain_lane(AccessCursor& c, unsigned idx) {
  resume(c, idx);
  flush_lane(c, 0);
  flush_lane(c, 1);
}

// Flushes the current lanes and every parked one: the cursor holds nothing
// afterwards.
void flush_all(AccessCursor& c) {
  const unsigned cur = c.cur;
  flush_lane(c, 0);
  flush_lane(c, 1);
  for (unsigned i = 0; i < c.nlanes; ++i) {
    if (i != cur) drain_lane(c, i);
  }
  c.nlanes = 0;
}

// Hands a ring victim to the strand buffer: extend the interval spilled
// earlier with the same start when the index still points at one (a row
// re-streamed from its start, [lo,h] u [lo,h'] = [lo,max(h,h')]), else
// add() it and remember where it went.
void spill(AccessCursor& c, int lane, detect::Interval iv) {
  constexpr unsigned kMask = (1u << AccessCursor::kSpillBits) - 1;
  detect::AccessBuffer& out = *c.st.out[lane];
  AccessCursor::SpillEntry* index = c.spill_at[lane];
  const std::uint32_t gen = c.spill_gen[lane];
  unsigned i = AccessCursor::spill_slot(iv.lo);
  while (index[i].gen == gen && index[i].lo != iv.lo) i = (i + 1) & kMask;
  const bool known = index[i].gen == gen;
  if (known && out.merge_at(index[i].at, iv.lo, iv.hi)) return;
  out.add(iv.lo, iv.hi);
  if (!known && ++c.spill_live[lane] > AccessCursor::kSpillLive) {
    c.spill_gen[lane] = gen + 1;  // restart: every entry reads as empty
    c.spill_live[lane] = 1;
    i = AccessCursor::spill_slot(iv.lo);
  }
  index[i] = {iv.lo, c.spill_gen[lane],
              static_cast<std::uint32_t>(out.raw_count() - 1)};
}

// The cursor miss path: uninstalled dispatch and the ablation mode first
// (both were folded into the hit predicate via the never-match sentinel),
// then demote the open interval into the pending ring (spilling the
// least-recently-used pending entry when the ring is full) and open a fresh
// interval for this access.
PINT_NOINLINE void cursor_record_miss(AccessCursor& c, detect::addr_t lo,
                                      detect::addr_t hi, bool write) {
  if (PINT_UNLIKELY(!c.installed)) {
    detail::record_access_slow(reinterpret_cast<const void*>(lo),
                               hi - lo + 1, write);
    return;
  }
  if (PINT_UNLIKELY(!c.coalesce)) {
    c.st.out[write]->add_raw(lo, hi);  // ablation mode: no merging anywhere
    ++c.spilled;
    return;
  }
  // The pending-ring probe lives inline in record_lane (two-stream kernels
  // ping-pong between the open interval and the ring every other access;
  // paying an out-of-line call for each absorbed bounce dominated
  // chol/mmul), so reaching here means a genuinely new interval.
  if (!c.open_empty(write)) {
    unsigned slot = c.st.npend[write];
    if (slot == AccessCursor::kPend) {
      slot = 0;
      for (unsigned i = 1; i < AccessCursor::kPend; ++i) {
        if (c.st.used[write][i] < c.st.used[write][slot]) slot = i;
      }
      spill(c, write, c.st.pend[write][slot]);
      ++c.spilled;
    } else {
      ++c.st.npend[write];
    }
    c.st.pend[write][slot] = {c.lo[write], c.hi[write]};
    c.st.used[write][slot] = c.raw[write];
  }
  c.lo[write] = lo;
  c.hi[write] = hi;
}

}  // namespace

namespace detail {

std::atomic<bool> g_instrumentation_on{false};

PINT_NOINLINE void record_access_slow(const void* p, std::size_t bytes,
                                      bool write) {
  detect::Detector* d = g_active.load(std::memory_order_relaxed);
  if (d == nullptr || bytes == 0) return;
  rt::Worker* w = rt::current_worker();
  if (w == nullptr || w->current_frame() == nullptr) return;  // outside a run
  const detect::addr_t lo = detect::addr_of(p);
  d->on_access(*w, *w->current_frame(), lo, lo + bytes - 1, write);
}

// The per-lane hit path, branch-minimal by design: one raw-counter
// increment plus the same extension predicate as AccessBuffer::add's tail
// probe; installed/ablation state is encoded in the open-interval sentinels
// (see AccessCursor above), so the raw counters tick even with no cursor
// installed - install resets them, so only in-strand counts are ever read.
// kLane is a compile-time constant so every cursor field is a fixed TLS
// displacement (no lane indexing in the emitted code).  Callers guarantee
// bytes > 0 (the inline wrappers hoist that check).
template <int kLane>
inline void record_lane(const void* p, std::size_t bytes) {
  AccessCursor& c = t_cursor;
  const detect::addr_t lo = detect::addr_of(p);
  const detect::addr_t hi = lo + bytes - 1;
  ++c.raw[kLane];
  if (PINT_LIKELY(lo >= c.lo[kLane] && lo <= c.hi[kLane] + 1)) {
    if (hi > c.hi[kLane]) c.hi[kLane] = hi;
    return;
  }
  // Pending-ring probe, still inline: a miss absorbed by a pending stream is
  // the steady state for multi-stream kernels (A[i][k]/A[j][k] ping-pong),
  // and npend > 0 implies installed && coalesce, so no sentinel state can
  // reach the extension predicate below.
  const unsigned np = c.st.npend[kLane];
  for (unsigned i = 0; i < np; ++i) {
    detect::Interval& b = c.st.pend[kLane][i];
    if (lo >= b.lo && lo <= b.hi + 1) {
      if (hi > b.hi) b.hi = hi;
      // LRU stamp, the ring hit's one extra store.  Re-read raw (relaxed,
      // single-threaded) so the open-interval path keeps its in-memory
      // increment instead of holding the count in a register for this.
      c.st.used[kLane][i] = __atomic_load_n(&c.raw[kLane], __ATOMIC_RELAXED);
      return;
    }
  }
  cursor_record_miss(c, lo, hi, kLane != 0);
}

// noinline: re-derive the thread-local cursor on every call, for the same
// fiber-migration reason as rt::current_worker().
PINT_NOINLINE void record_access_read(const void* p, std::size_t bytes) {
  record_lane<0>(p, bytes);
}
PINT_NOINLINE void record_access_write(const void* p, std::size_t bytes) {
  record_lane<1>(p, bytes);
}
PINT_NOINLINE void record_access(const void* p, std::size_t bytes,
                                 bool write) {
  if (write) {
    record_lane<1>(p, bytes);
  } else {
    record_lane<0>(p, bytes);
  }
}

}  // namespace detail

namespace detect {

void set_active_detector(Detector* d) {
  g_active.store(d, std::memory_order_seq_cst);
  detail::g_instrumentation_on.store(d != nullptr, std::memory_order_seq_cst);
}
Detector* active_detector() { return g_active.load(std::memory_order_relaxed); }

PINT_NOINLINE void cursor_install(AccessBuffer* reads, AccessBuffer* writes,
                                  bool coalesce, std::uint32_t lsid,
                                  std::uint32_t record) {
  if (!g_fast_path.load(std::memory_order_relaxed)) return;
  AccessCursor& c = t_cursor;
  if (PINT_UNLIKELY(c.installed)) {
    // Misuse guard: detectors invalidate before installing, so a live
    // cursor here means a caller skipped that - flush rather than lose the
    // previous strand's buffered intervals (the counts are dropped).
    flush_all(c);
  }
  PINT_ASSERT(reads != nullptr && writes != nullptr);
  c.st.out[0] = reads;
  c.st.out[1] = writes;
  // Coalescing starts from the empty open interval; the ablation keeps the
  // never-match sentinel so every access takes the miss path's add_raw.
  for (int lane = 0; lane < 2; ++lane) {
    if (coalesce) {
      c.set_open_empty(lane);
    } else {
      c.set_never_match(lane);
    }
    c.st.npend[lane] = 0;
  }
  c.raw[0] = c.raw[1] = 0;
  c.spilled = 0;
  c.coalesce = coalesce;
  c.installed = true;
  for (int lane = 0; lane < 2; ++lane) {
    ++c.spill_gen[lane];
    c.spill_live[lane] = 0;
  }
  c.lane[0].lsid = lsid;
  c.lane[0].record = record;
  c.lane[0].last = c.switches;
  c.nlanes = 1;
  c.cur = 0;
}

PINT_NOINLINE CursorFlush cursor_invalidate() {
  AccessCursor& c = t_cursor;
  CursorFlush out;
  if (!c.installed) return out;
  out.raw_reads = c.raw[0];
  out.raw_writes = c.raw[1];
  // A hit is an access absorbed in cursor storage: everything except the
  // per-access spills (ring overflow, ablation add_raw), of which each
  // access causes at most one.  The end-of-strand drain below is a bounded
  // hand-off, not a miss.
  out.hits = c.raw[0] + c.raw[1] - c.spilled;
  out.spills = c.spilled;
  out.record = c.lane[c.cur].record;
  flush_all(c);
  c.raw[0] = c.raw[1] = 0;
  c.spilled = 0;
  c.installed = false;
  return out;
}

PINT_NOINLINE void cursor_lock_transition(std::uint32_t from,
                                          std::uint64_t lock, bool acquire,
                                          std::uint32_t to,
                                          AccessBuffer* reads,
                                          AccessBuffer* writes,
                                          std::uint32_t record) {
  AccessCursor& c = t_cursor;
  const std::uint32_t key = AccessCursor::memo_key(from, acquire);
  AccessCursor::Transition* t = &c.memo_slot(lock, key);
  if (t->key == 0) {
    if (2 * ++c.nmemo > (1u << AccessCursor::kMemoBits)) {
      for (AccessCursor::Transition& e : c.memo) e = {};
      c.nmemo = 1;
      t = &c.memo_slot(lock, key);
    }
    *t = {lock, key, to};
  }
  if (!c.installed || to == from) return;
  PINT_ASSERT(c.lane[c.cur].lsid == from);
  park(c);
  unsigned idx = 0;
  while (idx < c.nlanes && c.lane[idx].lsid != to) ++idx;
  if (idx == c.nlanes) {
    if (c.nlanes < AccessCursor::kLanes) {
      ++c.nlanes;
    } else {
      // Every lane taken: the least recently current one (never the lane
      // just parked) drains into its sub-record and makes room.
      idx = c.cur == 0 ? 1 : 0;
      for (unsigned i = 0; i < c.nlanes; ++i) {
        if (i != c.cur && c.lane[i].last < c.lane[idx].last) idx = i;
      }
      drain_lane(c, idx);
    }
    AccessCursor::LockLane& l = c.lane[idx];
    l.lsid = to;
    l.record = record;
    l.st.out[0] = reads;
    l.st.out[1] = writes;
    for (int k = 0; k < 2; ++k) {
      // Empty open interval, or the ablation's never-match sentinel.
      l.lo[k] = c.coalesce ? ~addr_t(0) : 1;
      l.hi[k] = c.coalesce ? ~addr_t(0) - 1 : ~addr_t(0);
      l.st.npend[k] = 0;
    }
  }
  PINT_ASSERT(c.lane[idx].record == record);
  resume(c, idx);
}

PINT_NOINLINE std::uint32_t cursor_record() {
  const AccessCursor& c = t_cursor;
  return c.installed ? c.lane[c.cur].record : CursorFlush::kNoRecord;
}

PINT_NOINLINE void cursor_rebind(std::uint32_t record, AccessBuffer* reads,
                                 AccessBuffer* writes) {
  AccessCursor& c = t_cursor;
  if (!c.installed) return;
  for (unsigned i = 0; i < c.nlanes; ++i) {
    if (c.lane[i].record != record) continue;
    c.lane[i].st.out[0] = reads;
    c.lane[i].st.out[1] = writes;
    if (i == c.cur) {
      c.st.out[0] = reads;
      c.st.out[1] = writes;
    }
  }
}

PINT_NOINLINE void cursor_reset() { t_cursor = AccessCursor{}; }

PINT_NOINLINE bool cursor_installed() { return t_cursor.installed; }

void set_access_fast_path(bool on) {
  g_fast_path.store(on, std::memory_order_seq_cst);
}
bool access_fast_path() { return g_fast_path.load(std::memory_order_relaxed); }

}  // namespace detect

namespace {

// The detector route of the lock hooks: same dispatch as
// record_access_slow.  The interval detectors move the strand to the new
// lockset's sub-record and hand the lane switch back to the cursor
// (cursor_lock_transition, DESIGN.md §12.3).
PINT_NOINLINE void lock_event(const void* mutex, bool acquire) {
  detect::Detector* d = g_active.load(std::memory_order_relaxed);
  if (d == nullptr || mutex == nullptr) return;
  rt::Worker* w = rt::current_worker();
  if (w == nullptr || w->current_frame() == nullptr) return;  // outside a run
  const detect::addr_t lock = detect::addr_of(mutex);
  if (acquire) {
    d->on_lock_acquire(*w, *w->current_frame(), lock);
  } else {
    d->on_lock_release(*w, *w->current_frame(), lock);
  }
}

// A lock event as a lane switch inside the cursor: a memoized transition
// to the current lockset (a recursive acquire, an unmatched release) is
// a no-op, one into a registered lock lane parks the current lanes and
// resumes that one.  Anything else - no cursor, a transition not seen
// yet, a lockset new to the strand - takes the detector route, which
// registers what it learns.  Only the detector route registers lanes
// beyond the install's, so a detector that ignores lock events (lock
// edges off, C-RACER and the oracle install no cursor) keeps seeing every
// event that would change the lockset.  Inlined into the two hooks, which
// are out of line and so re-derive the thread-local cursor per call.
template <bool kAcquire>
inline void lock_lane(const void* mutex) {
  AccessCursor& c = t_cursor;
  if (c.installed) {
    const detect::addr_t lock = detect::addr_of(mutex);
    const std::uint32_t from = c.lane[c.cur].lsid;
    const std::uint32_t key = AccessCursor::memo_key(from, kAcquire);
    const AccessCursor::Transition& t = c.memo_slot(lock, key);
    if (t.key != 0) {
      if (t.to == from) return;
      for (unsigned i = 0; i < c.nlanes; ++i) {
        if (c.lane[i].lsid == t.to) {
          park(c);
          resume(c, i);
          return;
        }
      }
    }
  }
  lock_event(mutex, kAcquire);
}

}  // namespace

void lock_acquire(const void* mutex) {
  if (!detail::g_instrumentation_on.load(std::memory_order_relaxed)) return;
  lock_lane<true>(mutex);
}
void lock_release(const void* mutex) {
  if (!detail::g_instrumentation_on.load(std::memory_order_relaxed)) return;
  lock_lane<false>(mutex);
}

extern "C" {
void __pint_lock_acquire(void* mutex) { lock_acquire(mutex); }
void __pint_lock_release(void* mutex) { lock_release(mutex); }
}

void* dmalloc(std::size_t bytes) {
  void* base = std::malloc(bytes + kHeaderBytes);
  PINT_CHECK_MSG(base != nullptr, "dmalloc: out of memory");
  auto* h = static_cast<BlockHeader*>(base);
  h->user_bytes = bytes;
  h->magic = kBlockMagic;
  return static_cast<char*>(base) + kHeaderBytes;
}

void dfree(void* p) {
  if (p == nullptr) return;
  void* base = static_cast<char*>(p) - kHeaderBytes;
  auto* h = static_cast<BlockHeader*>(base);
  PINT_CHECK_MSG(h->magic == kBlockMagic, "dfree: not a dmalloc block");
  h->magic = 0;
  const std::size_t bytes = h->user_bytes;

  detect::Detector* d = g_active.load(std::memory_order_relaxed);
  rt::Worker* w = rt::current_worker();
  if (d != nullptr && w != nullptr && w->current_frame() != nullptr &&
      bytes > 0) {
    const detect::addr_t lo = detect::addr_of(p);
    d->on_heap_free(*w, *w->current_frame(), base, lo, lo + bytes - 1);
    return;  // the detector owns the actual free now
  }
  std::free(base);
}

}  // namespace pint
