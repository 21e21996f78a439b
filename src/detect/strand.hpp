#pragma once

// The transient strand record.
//
// A Strand accumulates one strand's coalesced accesses, in one sub-record
// per lockset they were recorded under, plus the ordering bookkeeping of
// the paper's Algorithms 1-2 (pred counter, child pointer) and the
// deferred-resource lists of §III-F (stack-clear ranges, deferred heap
// frees, the retired fiber whose stack must not be reused early).
//
// Only the *label* is persistent: treaps copy {label, sid} into their nodes,
// so the Strand object itself is recycled once every history worker has
// processed it (the paper's fetch-and-add consumer counter).

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "detect/instrument.hpp"
#include "detect/lockset.hpp"
#include "detect/stats.hpp"
#include "detect/types.hpp"
#include "reach/depa.hpp"

namespace pint::rt {
struct TaskFrame;
}

namespace pint::detect {

/// The accesses one strand recorded under one lockset (DESIGN.md §12.3):
/// every access lands in the sub-record of the lockset held when it ran.
struct LockRecord {
  lockset_t lsid = 0;
  AccessBuffer reads;
  AccessBuffer writes;

  bool empty() const { return reads.empty() && writes.empty(); }
};

struct Strand {
  std::uint64_t sid = 0;
  reach::Engine::Label label;
  /// Task name of the strand's owning task (named spawns); for reports.
  const char* tag = nullptr;

  /// One sub-record per lockset the strand recorded under, in creation
  /// order until seal_strand() puts them in apply order (see record()).
  /// Only the first nrecs are live; the slots past them stay for the next
  /// use of this object, so a lock event allocates no sub-record, only
  /// interval storage.  The first, the only one a lock-free strand uses,
  /// sits among the hot fields.
  LockRecord first;
  std::uint32_t nrecs = 1;
  /// The sub-record taking accesses now: its lsid is the held lockset.
  std::uint32_t cur = 0;

  std::vector<Interval> clears;  // stack ranges to erase from each treap
  std::vector<HeapFree> frees;   // deferred heap frees (writer performs them)

  // --- Algorithm 1/2 bookkeeping ---
  /// Number of uncollected immediate predecessors (meaningful only when this
  /// strand is the first strand of a trace: a stolen continuation or the
  /// sync node of a non-trivial sync).
  std::atomic<std::int32_t> pred{0};
  /// Successor whose pred the writer decrements upon collecting this strand
  /// (the continuation for a spawn node; the sync node for a return node
  /// whose continuation was stolen or a strand leading into a non-trivial
  /// sync). Null otherwise.
  Strand* collect_child = nullptr;

  // --- recycling ---
  /// Remaining history workers that have not yet processed this strand.
  std::atomic<std::int32_t> consumers{0};
  /// Finished task frame whose fiber stack is retired by this (return-node)
  /// strand; the writer returns it to the scheduler pool when it processes
  /// this strand, which is exactly when reuse becomes safe.
  rt::TaskFrame* retired_frame = nullptr;
  std::uint32_t owner_worker = 0;
  Strand* pool_next = nullptr;

  // The second sub-record and the rest: only lock-bearing strands reach
  // them, so they sit behind every field a lock-free strand touches.  The
  // second is inline because a first allocation of `more` mid-run slows
  // the next detector's construction (DESIGN.md §12.3).
  LockRecord second;
  std::vector<LockRecord> more;

  void reset(std::uint64_t id) {
    sid = id;
    label = {};
    tag = nullptr;
    // The first sub-record keeps the largest buffers for the next strand,
    // whatever locks it takes; the others free theirs, so an object later
    // reused by a lock-free strand pins no sub-record storage.
    for (std::uint32_t i = 1; i < nrecs; ++i) {
      LockRecord& r = record(i);
      keep_larger(first.reads, r.reads);
      keep_larger(first.writes, r.writes);
      r.reads = AccessBuffer{};
      r.writes = AccessBuffer{};
    }
    first.reads.clear();
    first.writes.clear();
    first.lsid = 0;
    nrecs = 1;
    cur = 0;
    clears.clear();
    frees.clear();
    pred.store(0, std::memory_order_relaxed);
    collect_child = nullptr;
    consumers.store(0, std::memory_order_relaxed);
    retired_frame = nullptr;
  }

  LockRecord& record(std::uint32_t i) {
    return i == 0 ? first : i == 1 ? second : more[i - 2];
  }
  const LockRecord& record(std::uint32_t i) const {
    return i == 0 ? first : i == 1 ? second : more[i - 2];
  }
  LockRecord& active() { return record(cur); }
  /// The lockset the running code holds (valid until seal_strand()).
  lockset_t held() const { return record(cur).lsid; }

  /// f(r) for every live sub-record, in order.
  template <class F>
  void for_each_record(F&& f) const {
    for (std::uint32_t i = 0; i < nrecs; ++i) f(record(i));
  }

  /// Makes the sub-record of lockset `id` the active one, creating it on
  /// first use.  Creating one may move `more`: the access cursor's lanes
  /// over it must be rebound (note_lock_event).
  void enter(lockset_t id) {
    for (std::uint32_t i = 0; i < nrecs; ++i) {
      if (record(i).lsid == id) {
        cur = i;
        return;
      }
    }
    if (nrecs >= 2 + more.size()) more.emplace_back();
    record(nrecs).lsid = id;
    cur = nrecs++;
  }

  bool has_work() const {
    for (std::uint32_t i = 0; i < nrecs; ++i) {
      if (!record(i).empty()) return true;
    }
    return !clears.empty() || !frees.empty();
  }

 private:
  static void keep_larger(AccessBuffer& keep, AccessBuffer& other) {
    if (other.items().capacity() > keep.items().capacity()) {
      std::swap(keep, other);
    }
  }
};

// ---------------------------------------------------------------------------
// Lock sub-records (DESIGN.md §12.3), shared by the interval detectors
// (STINT and PINT) so their recording cannot drift apart.
// ---------------------------------------------------------------------------

/// The access cursor records into the strand's active sub-record, the
/// first of its lock lanes.
inline void install_cursor(Strand& s, bool coalesce) {
  cursor_install(&s.active().reads, &s.active().writes, coalesce, s.held(),
                 s.cur);
}

/// Detaches the access cursor from `s`, draining every lock lane into its
/// sub-record, and makes `cur` the sub-record the cursor ended in: lock
/// events the cursor switched itself never reached the strand.  Run it
/// before reading held() at a strand's end (the lockset a continuation
/// inherits) and before seal_strand().
inline CursorFlush detach_cursor(Strand& s) {
  const CursorFlush fl = cursor_invalidate();
  if (fl.record != CursorFlush::kNoRecord) s.cur = fl.record;
  return fl;
}

/// Lock hook of the interval detectors: the route of every lock event the
/// access cursor does not switch itself (a transition it has not seen, a
/// lockset new to its lanes, or no cursor installed).  Runs the
/// transition through the table and moves the strand to the sub-record of
/// the new held lockset; a recursive acquire or an unmatched release
/// changes nothing.  Then hands the transition to the cursor, which
/// memoizes it and switches to that sub-record's lane.
inline void note_lock_event(Strand& s, addr_t lock, bool acquire) {
  const std::uint32_t rec = cursor_record();
  if (rec != CursorFlush::kNoRecord) s.cur = rec;
  auto& tbl = LocksetTable::instance();
  const lockset_t held = s.held();
  const lockset_t nid =
      acquire ? tbl.acquire(held, lock) : tbl.release(held, lock);
  if (nid != held) {
    const LockRecord* more = s.more.data();
    s.enter(nid);
    if (s.more.data() != more) {
      // The lanes parked over `more` follow its storage.
      for (std::uint32_t i = 2; i + 1 < s.nrecs; ++i) {
        cursor_rebind(i, &s.record(i).reads, &s.record(i).writes);
      }
    }
  }
  cursor_lock_transition(held, lock, acquire, nid, &s.active().reads,
                         &s.active().writes, s.cur);
}

/// Seal-time tallies of one detector's strands, folded into Stats at run
/// end.
struct SealTally {
  std::uint64_t read_intervals = 0, write_intervals = 0;
  std::uint64_t tail_hits = 0, tail_misses = 0;
  std::uint64_t fin_sorted = 0;
  /// Non-empty sub-records beyond each strand's first.
  std::uint64_t lock_splits = 0;
};

/// Ends a strand's recording (its cursor already detached): finalizes every
/// sub-record and puts them in apply order - non-increasing lockset size,
/// ties in creation order - so the unguarded sub-record is applied last.
inline void seal_strand(Strand& s, bool coalesce, SealTally& t) {
  std::uint64_t nonempty = 0;
  for (std::uint32_t i = 0; i < s.nrecs; ++i) {
    LockRecord& r = s.record(i);
    r.reads.finalize(coalesce);
    r.writes.finalize(coalesce);
    t.read_intervals += r.reads.items().size();
    t.write_intervals += r.writes.items().size();
    t.tail_hits += r.reads.tail_hits() + r.writes.tail_hits();
    t.tail_misses += r.reads.tail_misses() + r.writes.tail_misses();
    t.fin_sorted += (r.reads.fin_path() == FinalizePath::kSorted) +
                    (r.writes.fin_path() == FinalizePath::kSorted);
    nonempty += !r.empty();
  }
  if (nonempty > 1) t.lock_splits += nonempty - 1;
  if (s.nrecs == 1) return;
  // Stable insertion sort: a strand holds a handful of sub-records at most.
  auto& tbl = LocksetTable::instance();
  auto size = [&](std::uint32_t i) {
    return tbl.locks(s.record(i).lsid).size();
  };
  for (std::uint32_t i = 1; i < s.nrecs; ++i) {
    for (std::uint32_t j = i; j > 0 && size(j - 1) < size(j); --j) {
      std::swap(s.record(j - 1), s.record(j));
    }
  }
}

/// The core-side tally of one interval-detector thread (STINT's worker,
/// each PINT core worker) and the recording steps that feed it, shared so
/// the two detectors' counters cannot drift apart.  Plain counters, owned
/// by that thread; fold() adds them into Stats at run end.
struct CoreTally {
  std::uint64_t raw_reads = 0, raw_writes = 0, strands = 0;
  // AccessCursor effectiveness (DESIGN.md §9): raw accesses recorded via
  // the thread-local cursor, the subset its inline caches absorbed, the
  // spills, and accesses that took the classic virtual-dispatch route.
  std::uint64_t fast_accesses = 0, fast_hits = 0, cursor_spills = 0;
  std::uint64_t slow_accesses = 0;
  SealTally seal;

  /// Classic on_access route: taken only when the AccessCursor fast path
  /// is disabled.
  void access(Strand* s, addr_t lo, addr_t hi, bool is_write, bool coalesce) {
    PINT_ASSERT(s != nullptr);
    ++slow_accesses;
    ++(is_write ? raw_writes : raw_reads);
    AccessBuffer& buf = is_write ? s->active().writes : s->active().reads;
    if (coalesce) {
      buf.add(lo, hi);
    } else {
      buf.add_raw(lo, hi);
    }
  }

  /// Detaches the access cursor from `s` (detach_cursor), folding its
  /// counters.  Runs before s's seal and before reading s.held().
  void cursor_flush(Strand& s) {
    const CursorFlush fl = detach_cursor(s);
    raw_reads += fl.raw_reads;
    raw_writes += fl.raw_writes;
    fast_accesses += fl.raw_reads + fl.raw_writes;
    fast_hits += fl.hits;
    cursor_spills += fl.spills;
  }

  /// on_lock_acquire / on_lock_release: reached only when the access
  /// cursor cannot switch lanes itself (note_lock_event); ignored with the
  /// lock_edges knob off.
  static void lock_event(bool lock_edges, Strand* s, addr_t lock,
                         bool acquire) {
    if (!lock_edges) return;
    PINT_ASSERT(s != nullptr);
    note_lock_event(*s, lock, acquire);
  }

  void fold(Stats& st) const {
    st.raw_reads.fetch_add(raw_reads);
    st.raw_writes.fetch_add(raw_writes);
    st.read_intervals.fetch_add(seal.read_intervals);
    st.write_intervals.fetch_add(seal.write_intervals);
    st.strands.fetch_add(strands);
    st.fastpath_accesses.fetch_add(fast_accesses);
    st.fastpath_hits.fetch_add(fast_hits);
    st.cursor_spills.fetch_add(cursor_spills);
    st.slowpath_accesses.fetch_add(slow_accesses);
    st.lock_splits.fetch_add(seal.lock_splits);
    st.tail_probe_hits.fetch_add(seal.tail_hits);
    st.tail_probe_misses.fetch_add(seal.tail_misses);
    st.finalize_sorted_skips.fetch_add(seal.fin_sorted);
  }
};

}  // namespace pint::detect
