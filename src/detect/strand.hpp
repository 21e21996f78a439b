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
  /// first use.  Invalidates pointers into `more`: flush the access cursor
  /// first.
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

/// The access cursor records into the strand's active sub-record.
inline void install_cursor(Strand& s, bool coalesce) {
  cursor_install(&s.active().reads, &s.active().writes, coalesce);
}

/// Lock hook: when the event changes the held lockset, runs flush_cursor()
/// (the cursor points into the strand's sub-records), moves the strand to
/// the sub-record of the new lockset and returns true; the caller then
/// reinstalls the cursor.  Recursive acquires and unmatched releases
/// return false.
template <class Flush>
inline bool note_lock_event(Strand& s, addr_t lock, bool acquire,
                            Flush&& flush_cursor) {
  auto& tbl = LocksetTable::instance();
  const lockset_t held = s.held();
  const lockset_t nid =
      acquire ? tbl.acquire(held, lock) : tbl.release(held, lock);
  if (nid == held) return false;
  flush_cursor();
  s.enter(nid);
  return true;
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

/// Ends a strand's recording (its cursor already flushed): finalizes every
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

}  // namespace pint::detect
