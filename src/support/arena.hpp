#pragma once

// Process-wide recycled allocation for the detector hot path (DESIGN.md §13).
//
// Two primitives, both behind the `arena` Tuning knob:
//
//  * SlabSource - a freelist of raw fixed-size memory blocks keyed by size
//    class.  The interval stores carve their 32-node leaf and internal-node
//    chunks from it and hand every chunk back wholesale in their
//    destructor.  Steady-state store growth therefore touches the system
//    allocator only the first time a size class is seen.
//
//  * Recycler<T> - a freelist of fully-constructed heap objects (Strand,
//    Trace, TraceChunk).  A detector's pools draw from it before calling
//    `new`, and the detector destructor retires its entire owned set in one
//    bulk hand-off (one lock acquisition, not one free per object).  Because
//    a recycled Strand keeps the grown capacity of its AccessBuffers and
//    clears/frees vectors, the steady state of a benchmark rep - construct
//    detector, run, destruct - performs no per-strand heap allocation at
//    all after the first rep.
//
// Recycled objects are NOT reinitialized here: the taker owns that (pool
// on_reuse / Strand::reset / Trace::init), exactly as it already owns it for
// same-run pool recycling.  With the knob off, take() always misses and
// give() destroys, restoring the seed allocation behavior bit-for-bit (the
// knob only changes where memory comes from, never what is stored in it).
//
// Counters are process-wide monotonic totals (same pattern as the Backoff
// deep-entry counter); detectors attribute per-run deltas to
// Stats::arena_reuses / arena_fresh.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "support/spinlock.hpp"

namespace pint::support {

/// Global arena knob (detect::Tuning pushes it in apply_globals()).
inline std::atomic<bool>& arena_knob() {
  static std::atomic<bool> on{true};
  return on;
}
inline void set_arena_recycle(bool on) {
  arena_knob().store(on, std::memory_order_relaxed);
}
inline bool arena_recycle() {
  return arena_knob().load(std::memory_order_relaxed);
}

/// Process-wide monotonic counters: takes served from a freelist vs from the
/// system allocator (objects and slabs both count here).
inline std::atomic<std::uint64_t> g_arena_reuses{0};
inline std::atomic<std::uint64_t> g_arena_fresh{0};

struct ArenaCounters {
  std::uint64_t reuses = 0;
  std::uint64_t fresh = 0;
};
inline ArenaCounters arena_counters() {
  return {g_arena_reuses.load(std::memory_order_relaxed),
          g_arena_fresh.load(std::memory_order_relaxed)};
}

/// Freelist of raw memory blocks, one list per distinct byte size.  take()
/// and give() must use the same `bytes` for a given block.  Blocks are
/// retained for the life of the process (the working set is bounded by the
/// high-water mark of concurrently live detectors).
class SlabSource {
 public:
  static SlabSource& instance() {
    static SlabSource s;
    return s;
  }

  /// Free every retained block at process exit (the function-local static's
  /// destructor).  Anything still checked out is its taker's to give back
  /// first - detectors are destroyed before main returns, and the stores
  /// hand their chunks back in their own destructors.
  ~SlabSource() {
    for (auto& c : classes_) {
      for (void* p : c.free) ::operator delete(p);
    }
  }

  /// A block of exactly `bytes`, recycled if one is available.  Never fails:
  /// falls through to ::operator new (which may throw bad_alloc like the
  /// plain `new` it replaces).
  void* take(std::size_t bytes) {
    if (arena_recycle()) {
      LockGuard<Spinlock> g(mu_);
      for (auto& c : classes_) {
        if (c.bytes == bytes && !c.free.empty()) {
          void* p = c.free.back();
          c.free.pop_back();
          g_arena_reuses.fetch_add(1, std::memory_order_relaxed);
          return p;
        }
      }
    }
    g_arena_fresh.fetch_add(1, std::memory_order_relaxed);
    return ::operator new(bytes);
  }

  /// Return a block previously obtained from take(bytes).  With the knob
  /// off the block is released to the system allocator immediately.
  void give(void* p, std::size_t bytes) {
    if (!arena_recycle()) {
      ::operator delete(p);
      return;
    }
    LockGuard<Spinlock> g(mu_);
    for (auto& c : classes_) {
      if (c.bytes == bytes) {
        c.free.push_back(p);
        return;
      }
    }
    classes_.push_back({bytes, {p}});
  }

 private:
  struct Class {
    std::size_t bytes;
    std::vector<void*> free;
  };
  Spinlock mu_;
  std::vector<Class> classes_;
};

/// Freelist of fully-constructed heap objects of one type.  Takers must
/// reinitialize (the object carries its previous run's state, including any
/// grown container capacity - which is the point).
template <class T>
class Recycler {
 public:
  static Recycler& instance() {
    static Recycler r;
    return r;
  }

  /// A recycled object, or null when the list is empty / the knob is off.
  std::unique_ptr<T> take() {
    if (!arena_recycle()) return nullptr;
    LockGuard<Spinlock> g(mu_);
    if (free_.empty()) return nullptr;
    std::unique_ptr<T> p = std::move(free_.back());
    free_.pop_back();
    g_arena_reuses.fetch_add(1, std::memory_order_relaxed);
    return p;
  }

  /// Retire a batch of objects wholesale (one lock hold).  The vector is
  /// emptied either way; with the knob off the objects are destroyed.
  /// Retention is capped so one huge run cannot pin memory forever.
  void give_all(std::vector<std::unique_ptr<T>>* batch) {
    if (batch->empty()) return;
    if (arena_recycle()) {
      LockGuard<Spinlock> g(mu_);
      for (auto& p : *batch) {
        if (free_.size() >= kMaxRetained) break;
        if (p != nullptr) free_.push_back(std::move(p));
      }
    }
    batch->clear();  // destroys whatever was not retained
  }

  /// Retire a single object.
  void give(std::unique_ptr<T> p) {
    if (p == nullptr || !arena_recycle()) return;
    LockGuard<Spinlock> g(mu_);
    if (free_.size() < kMaxRetained) free_.push_back(std::move(p));
  }

 private:
  static constexpr std::size_t kMaxRetained = 65536;
  Spinlock mu_;
  std::vector<std::unique_ptr<T>> free_;
};

/// Count one system-allocator construction (pool miss paths call this so the
/// fresh/reuse split stays accurate even though `new` happens at the caller).
inline void note_arena_fresh() {
  g_arena_fresh.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace pint::support
