#pragma once

// The memory-event interface every detector implements, plus the process-
// wide registry the instrumentation facade dispatches through.
//
// Detectors additionally implement rt::SchedulerHooks for the control-flow
// events (spawn/sync/steal); this interface covers only the data side:
// memory accesses and heap management.

#include <cstddef>

#include "detect/types.hpp"

namespace pint::rt {
class Worker;
struct TaskFrame;
}

namespace pint::detect {

class Detector {
 public:
  virtual ~Detector() = default;

  /// A memory access of [lo, hi] by the current strand of `frame`,
  /// executing on `worker`. Interval detectors append to the strand's
  /// coalescing buffer; per-access detectors (C-RACER) check immediately.
  virtual void on_access(rt::Worker& worker, rt::TaskFrame& frame, addr_t lo,
                         addr_t hi, bool is_write) = 0;

  /// The current strand frees a heap block: `base` goes to ::free, [lo, hi]
  /// must be cleared from the access history. Synchronous detectors do both
  /// now; PINT defers both to the writer treap worker.
  virtual void on_heap_free(rt::Worker& worker, rt::TaskFrame& frame,
                            void* base, addr_t lo, addr_t hi) = 0;

  /// The current strand acquired / released the mutex at address `lock`
  /// (the __pint_lock_* hooks; recorded AFTER the real acquire and BEFORE
  /// the real release, so the recorded critical section nests inside the
  /// real one).  Lock-aware detectors record the strand's later accesses
  /// under the updated lockset (a sub-record in STINT and PINT, a new
  /// segment in C-RACER and the oracle); the default ignores lock events.
  virtual void on_lock_acquire(rt::Worker& /*worker*/,
                               rt::TaskFrame& /*frame*/, addr_t /*lock*/) {}
  virtual void on_lock_release(rt::Worker& /*worker*/,
                               rt::TaskFrame& /*frame*/, addr_t /*lock*/) {}

  virtual const char* name() const = 0;
};

/// Installs / clears the detector the record_* facade routes to. Call before
/// / after Scheduler::run; not thread-safe against in-flight accesses.
void set_active_detector(Detector* d);
Detector* active_detector();

}  // namespace pint::detect
