#pragma once

// Interned locksets for epoch×lockset race filtering (DESIGN.md §12).
//
// Each lock sub-record of a strand (a strand segment in C-RACER and the
// oracle) carries a compact `lockset_t` id naming the exact set of mutexes
// held while its accesses were recorded (0 = no locks, the overwhelmingly
// common case).  History records inherit the id through the
// `store::Accessor` that each store's accessor table keeps per (sid, lsid),
// or through the shadow cells, and the conflict paths suppress a report
// when both sides' records share a lock - two parallel accesses guarded by
// a common mutex are not a race (PWR-style lockset reasoning, layered over
// the interval machinery instead of replacing it).
//
// Ids are interned process-wide in a LocksetTable: acquire/release are rare
// control events, so the transitions run under one spinlock; the id -> set
// mapping is append-only chunked storage readable lock-free from the history
// lanes, and `intersects` pairs are memoized in a small direct-mapped atomic
// cache.  When no program locks exist the whole feature costs two integer
// compares per conflict candidate.

#include <cstdint>
#include <vector>

#include "detect/types.hpp"

namespace pint::detect {

/// Interned lockset id.  0 is the empty set and is never interned.
using lockset_t = std::uint32_t;

class LocksetTable {
 public:
  /// Process-wide table (ids must mean the same set in every detector that
  /// ran in this process - race reports and the oracle compare across runs).
  static LocksetTable& instance();

  /// Id of `cur` ∪ {lock}.  Returns `cur` when the lock is already held
  /// (recursive acquire).  Thread-safe; intended for control events only.
  lockset_t acquire(lockset_t cur, addr_t lock);

  /// Id of `cur` ∖ {lock}.  Returns `cur` when the lock is not in the set
  /// (unmatched release), 0 when the set becomes empty.
  lockset_t release(lockset_t cur, addr_t lock);

  /// Do the two sets share at least one lock?  Lock-free (callable from
  /// every history lane concurrently); both ids must have been published to
  /// this thread via a happens-before edge, which the strand hand-off queues
  /// already provide.
  bool intersects(lockset_t a, lockset_t b) const;

  /// The sorted lock addresses of an interned id.  Lock-free, like
  /// intersects(), with the same requirement that `id` reached this thread
  /// via a happens-before edge.  seal_strand() calls it on the thread that
  /// ran the strand, which obtained every id from acquire()/release().
  const std::vector<addr_t>& locks(lockset_t id) const;

  /// Number of interned sets, counting the implicit empty set as id 0.
  std::size_t size() const;

 private:
  LocksetTable();
  struct Impl;
  Impl* impl_;
};

/// The conflict-path filter: true iff both records held a common lock.
/// First two compares are the no-locks fast path - `a` and `b` are 0 for
/// every record of a lock-free program.
inline bool locksets_share(lockset_t a, lockset_t b) {
  if (a == 0 || b == 0) return false;
  if (a == b) return true;
  return LocksetTable::instance().intersects(a, b);
}

}  // namespace pint::detect
