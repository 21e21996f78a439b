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
  static constexpr unsigned kSpillBits = 6;  // 64 index slots per lane

  // --- hot line: open interval + raw counters, indexed by `write` ---
  detect::addr_t lo[2] = {1, 1};
  detect::addr_t hi[2] = {~detect::addr_t(0), ~detect::addr_t(0)};
  std::uint64_t raw[2] = {0, 0};

  // --- miss-path state ---
  std::uint64_t spilled = 0;  // per-access buffer touches; hits = raw - spilled
  detect::AccessBuffer* out[2] = {nullptr, nullptr};
  detect::Interval pend[2][kPend] = {};
  std::uint64_t used[2][kPend] = {};  // raw[lane] at the slot's last hit
  unsigned npend[2] = {0, 0};
  bool coalesce = true;
  bool installed = false;
  // Same-start spill index, hashed on the interval's start: where in out[]
  // an interval with that start was spilled.  Never reset: merge_at checks
  // the start, so a stale or out-of-range position just misses.
  std::uint32_t spill_at[2][1u << kSpillBits] = {};

  // Multiplicative hash of the 8-byte word an interval starts at.
  static unsigned spill_slot(detect::addr_t lo) {
    return unsigned(((lo >> 3) * 0x9E3779B97F4A7C15ull) >> (64 - kSpillBits));
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
  if (c.out[lane] == nullptr) return;
  if (c.coalesce) {
    // In ablation mode open/pend never hold data (never-match sentinel
    // routes every access straight to add_raw), so there is nothing to
    // drain - and the sentinel must not be emitted as an interval.
    if (!c.open_empty(lane)) c.out[lane]->add(c.lo[lane], c.hi[lane]);
    for (unsigned i = 0; i < c.npend[lane]; ++i) {
      c.out[lane]->add(c.pend[lane][i].lo, c.pend[lane][i].hi);
    }
  }
  c.set_never_match(lane);
  c.npend[lane] = 0;
  c.out[lane] = nullptr;
}

// Hands a ring victim to the strand buffer: extend the interval spilled
// earlier with the same start when the index still points at one (a row
// re-streamed from its start, [lo,h] u [lo,h'] = [lo,max(h,h')]), else
// add() it and remember where it went.
void spill(AccessCursor& c, int lane, detect::Interval iv) {
  detect::AccessBuffer& out = *c.out[lane];
  std::uint32_t& at = c.spill_at[lane][AccessCursor::spill_slot(iv.lo)];
  if (out.merge_at(at, iv.lo, iv.hi)) return;
  out.add(iv.lo, iv.hi);
  at = static_cast<std::uint32_t>(out.raw_count() - 1);
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
    c.out[write]->add_raw(lo, hi);  // ablation mode: no merging anywhere
    ++c.spilled;
    return;
  }
  // The pending-ring probe lives inline in record_lane (two-stream kernels
  // ping-pong between the open interval and the ring every other access;
  // paying an out-of-line call for each absorbed bounce dominated
  // chol/mmul), so reaching here means a genuinely new interval.
  if (!c.open_empty(write)) {
    unsigned slot = c.npend[write];
    if (slot == AccessCursor::kPend) {
      slot = 0;
      for (unsigned i = 1; i < AccessCursor::kPend; ++i) {
        if (c.used[write][i] < c.used[write][slot]) slot = i;
      }
      spill(c, write, c.pend[write][slot]);
      ++c.spilled;
    } else {
      ++c.npend[write];
    }
    c.pend[write][slot] = {c.lo[write], c.hi[write]};
    c.used[write][slot] = c.raw[write];
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
  const unsigned np = c.npend[kLane];
  for (unsigned i = 0; i < np; ++i) {
    detect::Interval& b = c.pend[kLane][i];
    if (lo >= b.lo && lo <= b.hi + 1) {
      if (hi > b.hi) b.hi = hi;
      // LRU stamp, the ring hit's one extra store.  Re-read raw (relaxed,
      // single-threaded) so the open-interval path keeps its in-memory
      // increment instead of holding the count in a register for this.
      c.used[kLane][i] = __atomic_load_n(&c.raw[kLane], __ATOMIC_RELAXED);
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
                                  bool coalesce) {
  if (!g_fast_path.load(std::memory_order_relaxed)) return;
  AccessCursor& c = t_cursor;
  if (PINT_UNLIKELY(c.installed)) {
    // Misuse guard: detectors invalidate before installing, so a live
    // cursor here means a caller skipped that - flush rather than lose the
    // previous strand's buffered intervals (the counts are dropped).
    flush_lane(c, 0);
    flush_lane(c, 1);
  }
  PINT_ASSERT(reads != nullptr && writes != nullptr);
  c.out[0] = reads;
  c.out[1] = writes;
  // Coalescing starts from the empty open interval; the ablation keeps the
  // never-match sentinel so every access takes the miss path's add_raw.
  for (int lane = 0; lane < 2; ++lane) {
    if (coalesce) {
      c.set_open_empty(lane);
    } else {
      c.set_never_match(lane);
    }
    c.npend[lane] = 0;
  }
  c.raw[0] = c.raw[1] = 0;
  c.spilled = 0;
  c.coalesce = coalesce;
  c.installed = true;
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
  flush_lane(c, 0);
  flush_lane(c, 1);
  c.raw[0] = c.raw[1] = 0;
  c.spilled = 0;
  c.installed = false;
  return out;
}

PINT_NOINLINE void cursor_reset() { t_cursor = AccessCursor{}; }

PINT_NOINLINE bool cursor_installed() { return t_cursor.installed; }

void set_access_fast_path(bool on) {
  g_fast_path.store(on, std::memory_order_seq_cst);
}
bool access_fast_path() { return g_fast_path.load(std::memory_order_relaxed); }

}  // namespace detect

namespace {

// Shared slow route of the lock hooks: same dispatch as record_access_slow
// (lock events are control events - there is no cursor fast path to take,
// and detectors move the cursor to the new lockset's sub-record themselves,
// DESIGN.md §12.3).
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

}  // namespace

void lock_acquire(const void* mutex) {
  if (!detail::g_instrumentation_on.load(std::memory_order_relaxed)) return;
  lock_event(mutex, true);
}
void lock_release(const void* mutex) {
  if (!detail::g_instrumentation_on.load(std::memory_order_relaxed)) return;
  lock_event(mutex, false);
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
