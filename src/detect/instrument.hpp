#pragma once

// Instrumentation facade - what the Tapir compiler pass provides in the
// paper's setup, exposed here as an explicit API the benchmark kernels call.
//
//   pint::record_read(p, n) / record_write(p, n)  - a memory access
//   pint::dmalloc(n) / dfree(p)                   - detector-aware heap
//
// With no active detector every call is a cheap early-out, which is how the
// "baseline" rows of the evaluation tables are measured (same binary, same
// call sites, detection off).
//
// Fast path (DESIGN.md §9): while a strand executes, the detector installs a
// thread-local AccessCursor pointing straight at the strand's read/write
// AccessBuffers.  record_read/record_write then coalesce inline against a
// last-interval cache - no detector load, no worker lookup, no virtual call.
// The cursor is installed at every strand begin and invalidated (flushed)
// at every strand end, so between install and invalidate the owning OS
// thread never changes (strand boundaries are exactly the scheduler's
// migration points).
//
// All recording functions are defined out-of-line (instrument.cpp): they
// read thread-local state and must never be inlined across a spawn/sync
// where the calling code can migrate between OS threads.  The inline
// wrappers below only test constants and one global flag - nothing
// thread-local - before making the (noinline) call.

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace pint {

namespace detail {
/// True while a detector is installed. Read inline so that the "baseline"
/// configuration (detection off) pays only a predictable test-and-branch per
/// call site, mirroring an uninstrumented build.
extern std::atomic<bool> g_instrumentation_on;
/// Dispatch: takes the AccessCursor fast path when one is installed on this
/// thread, else falls through to the classic detector route.  noinline so
/// the thread-local cursor is re-derived on every call (fiber migration).
/// The per-lane entry points fold the read/write lane into the cursor's
/// TLS displacement at compile time (the wrappers below always know the
/// lane); the bool form dispatches for callers that don't.
void record_access_read(const void* p, std::size_t bytes);
void record_access_write(const void* p, std::size_t bytes);
void record_access(const void* p, std::size_t bytes, bool write);
/// The classic route (atomic detector load + worker lookup + virtual
/// on_access).  Kept callable directly so benchmarks can measure the fast
/// path against it; `set_access_fast_path(false)` forces every access here.
void record_access_slow(const void* p, std::size_t bytes, bool write);
}  // namespace detail

inline void record_read(const void* p, std::size_t bytes) {
  if (bytes == 0) return;  // zero-length: never crosses the call boundary
  if (!detail::g_instrumentation_on.load(std::memory_order_relaxed)) return;
  detail::record_access_read(p, bytes);
}
inline void record_write(const void* p, std::size_t bytes) {
  if (bytes == 0) return;  // zero-length: never crosses the call boundary
  if (!detail::g_instrumentation_on.load(std::memory_order_relaxed)) return;
  detail::record_access_write(p, bytes);
}

/// Typed helpers for single loads/stores.
template <class T>
inline T iload(const T& ref) {
  record_read(&ref, sizeof(T));
  return ref;
}
template <class T>
inline void istore(T& ref, const T& v) {
  record_write(&ref, sizeof(T));
  ref = v;
}

/// Detector-aware heap allocation. dfree clears the block's access history
/// (synchronously or deferred, per the active detector) before the memory
/// can be reused; using plain free() under a detector risks false races
/// through allocator reuse (paper §III-F).
void* dmalloc(std::size_t bytes);
void dfree(void* p);

/// Lock hooks (DESIGN.md §12) - what the compiler pass would emit around
/// mutex operations.  Call lock_acquire AFTER the real acquire succeeds and
/// lock_release BEFORE the real release, so the recorded critical section
/// nests inside the real one; the mutex's address is its identity.  With no
/// active detector both are the same cheap early-out as record_read.
void lock_acquire(const void* mutex);
void lock_release(const void* mutex);

extern "C" {
/// C-linkage spellings for instrumented builds (the Tapir-style pass emits
/// calls to these symbols).
void __pint_lock_acquire(void* mutex);
void __pint_lock_release(void* mutex);
}

/// RAII critical section: acquires the real lock, then records the acquire;
/// records the release, then releases the real lock.  The shape every
/// lock-aware kernel uses.
template <class Mutex>
class InstrumentedLockGuard {
 public:
  explicit InstrumentedLockGuard(Mutex& m) : m_(m) {
    m_.lock();
    lock_acquire(&m_);
  }
  ~InstrumentedLockGuard() {
    lock_release(&m_);
    m_.unlock();
  }
  InstrumentedLockGuard(const InstrumentedLockGuard&) = delete;
  InstrumentedLockGuard& operator=(const InstrumentedLockGuard&) = delete;

 private:
  Mutex& m_;
};

namespace detect {

class AccessBuffer;

/// What cursor_invalidate() hands back to the detector: the raw-access
/// counts recorded through the cursor since install, how many of them were
/// absorbed in cursor storage (open interval + pending ring - no per-access
/// AccessBuffer touch; the bounded end-of-strand drain is the normal
/// hand-off, not a miss), and the spills (the per-access buffer touches
/// that did happen: ring overflow, or every access in the coalesce-off
/// ablation).
struct CursorFlush {
  std::uint64_t raw_reads = 0;
  std::uint64_t raw_writes = 0;
  std::uint64_t hits = 0;
  std::uint64_t spills = 0;
};

/// Installs this thread's AccessCursor over the given strand buffers.  Any
/// previously installed cursor is flushed first (its counts are dropped -
/// detectors always invalidate before installing, so that path only guards
/// against misuse).  No-op while the fast path is globally disabled.
void cursor_install(AccessBuffer* reads, AccessBuffer* writes, bool coalesce);

/// Flushes the cursor's cached intervals into the strand buffers, detaches
/// it, and returns the counters accumulated since install.  Must run on the
/// thread that owns the strand (detectors call it from the scheduler hooks
/// that end the strand, which always run there).  Safe to call with no
/// cursor installed (returns zeros).
CursorFlush cursor_invalidate();

/// Hard reset: drop the cursor without flushing.  Only for thread entry /
/// defensive use where no strand can be current.
void cursor_reset();

bool cursor_installed();

/// Global knob (tests / benchmarks): false routes every access through
/// record_access_slow, exactly the pre-cursor behavior.  Default true.
/// Flip only at quiescence (no detection run in flight).
void set_access_fast_path(bool on);
bool access_fast_path();

}  // namespace detect

}  // namespace pint
