#pragma once

// The transient strand record.
//
// A Strand accumulates one strand's coalesced accesses plus the ordering
// bookkeeping of the paper's Algorithms 1-2 (pred counter, child pointer)
// and the deferred-resource lists of §III-F (stack-clear ranges, deferred
// heap frees, the retired fiber whose stack must not be reused early).
//
// Only the *label* is persistent: treaps copy {label, sid} into their nodes,
// so the Strand object itself is recycled once all three treap workers have
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
  /// (0 = none).  A lock acquire/release splits the strand into a new
  /// segment with the SAME label but a fresh sid and lsid, so every history
  /// record carries the exact lockset of its accesses.
  lockset_t lsid = 0;

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
  /// Remaining treap workers that have not yet processed this strand.
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

}  // namespace pint::detect
