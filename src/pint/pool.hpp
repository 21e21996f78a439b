#pragma once

// Object pool for PINT's strands, traces and trace chunks (DESIGN.md §6.2).
//
// Core workers take; the writer gives an object back once every history
// worker is done with it.  A pool owns every object it allocated and frees
// them all with itself, so an object may be given to another pool of its
// kind than the one it came from (an emergency-reserve strand recycles
// into its owner worker's pool) without changing owner.  What a pool
// cannot do on its own - tap the reserve, wait for the pipeline to
// recycle - is PintDetector::take().

#include <atomic>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "support/assert.hpp"
#include "support/failpoint.hpp"
#include "support/spinlock.hpp"

namespace pint::pintd {

template <class T>
class Pool {
 public:
  /// `name` appears in the out-of-memory notice and fatal messages.
  explicit Pool(const char* name) : name_(name) {}

  const char* name() const { return name_; }

  /// Carves n fresh objects onto the free list, with no fail point: the
  /// emergency reserves are filled this way while memory is still there.
  void fill(std::size_t n) {
    LockGuard<Spinlock> g(mu_);
    owned_.reserve(owned_.size() + n);
    free_.reserve(free_.size() + n);
    for (std::size_t i = 0; i < n; ++i) {
      owned_.push_back(std::make_unique<T>());
      free_.push_back(owned_.back().get());
    }
  }

  /// Reuses a free object, else allocates a fresh one: one lock
  /// acquisition either way.  nullptr when the allocation fails, really
  /// (bad_alloc) or by injection: "pool.alloc" is evaluated only on a
  /// miss, so `once` mode fails exactly one true allocation.
  T* take() { return count_out(pop(true)); }
  /// Free list only: never allocates, so never fails by injection.
  T* reuse() { return count_out(pop(false)); }

  void give(T* t) {
    in_use_.fetch_sub(1, std::memory_order_relaxed);
    LockGuard<Spinlock> g(mu_);
    free_.push_back(t);
  }

  /// Objects taken from this pool minus objects given to it, for the
  /// telemetry gauges.  Since objects move between pools of a kind, only
  /// the sum over all of them counts what is in use.
  std::int64_t in_use() const {
    return in_use_.load(std::memory_order_relaxed);
  }

 private:
  T* pop(bool may_alloc) {
    LockGuard<Spinlock> g(mu_);
    if (PINT_LIKELY(!free_.empty())) {
      T* t = free_.back();
      free_.pop_back();
      return t;
    }
    return may_alloc ? allocate() : nullptr;
  }

  // The miss path, under mu_; out of line so pop() inlines into take().
  PINT_NOINLINE T* allocate() {
    if (PINT_UNLIKELY(PINT_FAILPOINT("pool.alloc"))) return nullptr;
    try {
      owned_.push_back(std::make_unique<T>());
      return owned_.back().get();
    } catch (const std::bad_alloc&) {
      return nullptr;
    }
  }

  T* count_out(T* t) {
    if (PINT_LIKELY(t != nullptr)) {
      in_use_.fetch_add(1, std::memory_order_relaxed);
    }
    return t;
  }

  const char* name_;
  Spinlock mu_;
  std::vector<T*> free_;
  std::vector<std::unique_ptr<T>> owned_;
  // Atomic so the sampler thread can read it without taking mu_.
  std::atomic<std::int64_t> in_use_{0};
};

}  // namespace pint::pintd
