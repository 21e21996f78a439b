#pragma once

// The transient strand record.
//
// A Strand accumulates one strand's coalesced accesses plus the ordering
// bookkeeping of the paper's Algorithms 1-2 (pred counter, child pointer)
// and the deferred-resource lists of §III-F (stack-clear ranges, deferred
// heap frees, the retired fiber whose stack must not be reused early).
//
// Only the *label* is persistent: treaps copy {label, sid} into their nodes,
// so the Strand object itself is recycled once every history worker has
// processed it (the paper's fetch-and-add consumer counter).

#include <atomic>
#include <cstdint>
#include <vector>

#include "detect/lockset.hpp"
#include "detect/types.hpp"
#include "reach/depa.hpp"

namespace pint::rt {
struct TaskFrame;
}

namespace pint::detect {

struct Strand {
  std::uint64_t sid = 0;
  reach::Engine::Label label;
  /// Task name of the strand's owning task (named spawns); for reports.
  const char* tag = nullptr;
  /// Interned lockset held while this segment's accesses were recorded
  /// (0 = none), so every history record carries the exact lockset of its
  /// accesses.
  lockset_t lsid = 0;
  /// Lockset the running code holds now.  A lock event only updates it;
  /// `held != lsid` means a split is pending, and the next access cuts a
  /// new segment (see settle_lock_split below).
  lockset_t held = 0;

  AccessBuffer reads;
  AccessBuffer writes;
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

  void reset(std::uint64_t id) {
    sid = id;
    label = {};
    tag = nullptr;
    lsid = 0;
    held = 0;
    reads.clear();
    writes.clear();
    clears.clear();
    frees.clear();
    pred.store(0, std::memory_order_relaxed);
    collect_child = nullptr;
    consumers.store(0, std::memory_order_relaxed);
    retired_frame = nullptr;
  }

  bool has_work() const {
    return !reads.empty() || !writes.empty() || !clears.empty() ||
           !frees.empty();
  }
};

// ---------------------------------------------------------------------------
// Lazy lock segmentation (DESIGN.md §12.3), shared by the interval detectors
// (STINT and PINT) so their segment boundaries cannot drift apart.
//
// A lock hook only moves Strand::held.  The segment is cut at the first
// access recorded under a lockset that differs from its lsid, so a release
// followed by a re-acquire with nothing recorded in between costs no strand.
// Invariant: the access cursor is installed over a strand's buffers only
// while held == lsid; a pending split leaves it uninstalled, which routes
// the next access to the detector's on_access (the slow route).
// ---------------------------------------------------------------------------

/// What a lock event asks of the caller's access cursor.
enum class LockStep : std::uint8_t {
  kNone,    // cursor state unchanged (no lockset change, or still pending)
  kResume,  // held is back at lsid: reinstall the cursor over s's buffers
  kDefer,   // held left lsid: flush the cursor and leave it uninstalled
};

inline LockStep note_lock_event(Strand& s, addr_t lock, bool acquire) {
  auto& tbl = LocksetTable::instance();
  const lockset_t nid =
      acquire ? tbl.acquire(s.held, lock) : tbl.release(s.held, lock);
  if (nid == s.held) return LockStep::kNone;  // recursive / unmatched
  const bool pending = s.held != s.lsid;
  s.held = nid;
  if (nid == s.lsid) return LockStep::kResume;
  return pending ? LockStep::kNone : LockStep::kDefer;
}

/// First access under a pending split.  A segment with no work takes the
/// new lockset in place (returns false).  Otherwise returns true: the
/// caller seals s and continues on a successor opened by open_lock_segment.
inline bool settle_lock_split(Strand& s) {
  if (s.has_work()) return true;
  s.lsid = s.held;
  return false;
}

/// The successor segment: same label (equal labels are ordered by neither
/// order, so sibling segments never race), fresh sid (from alloc), and the
/// lockset the code holds now.
inline void open_lock_segment(const Strand& u, Strand& v) {
  v.label = u.label;
  v.tag = u.tag;
  v.lsid = v.held = u.held;
}

}  // namespace pint::detect
