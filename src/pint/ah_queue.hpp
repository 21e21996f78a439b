#pragma once

// The access-history queue (paper §III-D).
//
// A single producer - the writer history worker - inserts collected strands in
// DAG-conforming order; every history worker consumes the same sequence
// through private cursors, which is what guarantees every store observes one
// global access-history order (Lemma 4).
//
// Slot recycling follows the paper: each strand carries a consumer counter
// initialised to the number of history workers; each worker decrements it
// after processing, and the producer reclaims slots (recycling the strand
// and releasing its retired fiber already happened at processing time) once
// the counter hits zero.
//
// Memory-ordering contract (see also DESIGN.md, "Memory-ordering contracts"):
//
//  * SINGLE PRODUCER.  try_push / reclaim / grow_unsynchronized may only be
//    called from one thread (debug builds pin the first caller's thread id
//    and assert on it).  `tail_` is therefore producer-owned; it is an
//    atomic only so that monitoring reads of reclaimed() from other threads
//    are not data races.
//  * PUBLISH: the producer's plain store to slots_[h] is published by the
//    release store of head_; consumers must acquire-load head() before
//    touching at(i) for any i < head().
//  * RECYCLE: a consumer's last use of a strand/slot is sequenced before its
//    consumers.fetch_sub(1, acq_rel); the producer acquire-loads the counter
//    in reclaim() and only then reuses the slot.  The fetch_sub chain forms
//    a release sequence, so observing 0 synchronizes with *every* consumer.
//  * grow_unsynchronized() is legal ONLY while no consumer is registered
//    (sequential one-core mode); it asserts active_consumers() == 0.

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>

#include "detect/strand.hpp"
#include "support/assert.hpp"

namespace pint::pintd {

class AhQueue {
 public:
  explicit AhQueue(std::size_t capacity_pow2)
      : mask_(capacity_pow2 - 1),
        slots_(new detect::Strand*[capacity_pow2]) {
    PINT_CHECK_MSG((capacity_pow2 & (capacity_pow2 - 1)) == 0,
                   "capacity must be a power of 2");
  }

  /// Producer. Fails (returns false) when the ring is full; the producer
  /// should reclaim and retry - the readers drain independently, so this
  /// cannot deadlock.
  bool try_push(detect::Strand* s) {
    assert_single_producer();
    const std::uint64_t mask = mask_.load(std::memory_order_relaxed);
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    if (h - tail_.load(std::memory_order_relaxed) > mask) return false;
    slots_[h & mask] = s;
    head_.store(h + 1, std::memory_order_release);
    return true;
  }

  /// Producer: walk finished slots from the tail, invoking recycle(strand)
  /// for each strand all consumers are done with.
  template <class F>
  void reclaim(F&& recycle) {
    assert_single_producer();
    const std::uint64_t mask = mask_.load(std::memory_order_relaxed);
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    std::uint64_t t = tail_.load(std::memory_order_relaxed);
    while (t < h) {
      detect::Strand* s = slots_[t & mask];
      if (s->consumers.load(std::memory_order_acquire) != 0) break;
      recycle(s);
      tail_.store(++t, std::memory_order_relaxed);
    }
  }

  /// Consumers: published number of strands (a cursor < head() may read).
  std::uint64_t head() const { return head_.load(std::memory_order_acquire); }
  detect::Strand* at(std::uint64_t index) const {
    return slots_[index & mask_.load(std::memory_order_relaxed)];
  }

  std::uint64_t reclaimed() const {
    return tail_.load(std::memory_order_relaxed);
  }
  /// Monitoring-safe (the watchdog snapshot reads it cross-thread; growth
  /// only ever happens at consumer quiescence, so a relaxed load suffices).
  std::size_t capacity() const {
    return std::size_t(mask_.load(std::memory_order_relaxed)) + 1;
  }

  /// Consumer threads bracket their cursor loop with register/unregister so
  /// the producer-side structural mutation (grow_unsynchronized) can assert
  /// quiescence instead of silently racing a live cursor.
  void register_consumer() {
    active_consumers_.fetch_add(1, std::memory_order_acq_rel);
  }
  void unregister_consumer() {
    const int prev = active_consumers_.fetch_sub(1, std::memory_order_acq_rel);
    PINT_ASSERT(prev > 0);
    (void)prev;
  }
  int active_consumers() const {
    return active_consumers_.load(std::memory_order_acquire);
  }

  /// Doubles the ring. ONLY legal while no consumer threads are running
  /// (used by PINT's sequential one-core mode, where the whole queue is
  /// buffered before the reader phases start): a live consumer cursor holds
  /// a pointer into the old slot array and indexes it with the old mask.
  ///
  /// Bounded-growth form: returns false - leaving the ring untouched -
  /// when doubling would exceed max_capacity (0 = unbounded) or when the
  /// larger slot array cannot be allocated, so the caller can degrade
  /// (shed strands, report kOutOfMemory) instead of aborting in bad_alloc.
  bool try_grow_unsynchronized(std::size_t max_capacity) {
    assert_single_producer();
    PINT_CHECK_MSG(active_consumers() == 0,
                   "AhQueue::grow_unsynchronized with live consumer cursors");
    const std::uint64_t mask = mask_.load(std::memory_order_relaxed);
    const std::size_t old_cap = std::size_t(mask) + 1;
    const std::size_t new_cap = old_cap * 2;
    if (max_capacity != 0 && new_cap > max_capacity) return false;
    std::unique_ptr<detect::Strand*[]> fresh;
    try {
      fresh = std::make_unique<detect::Strand*[]>(new_cap);
    } catch (const std::bad_alloc&) {
      return false;
    }
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    for (std::uint64_t i = tail_.load(std::memory_order_relaxed); i < h; ++i) {
      fresh[i & (new_cap - 1)] = slots_[i & mask];
    }
    slots_ = std::move(fresh);
    mask_.store(new_cap - 1, std::memory_order_relaxed);
    return true;
  }

  /// Unbounded growth; aborts (cleanly, through the error sink) if the
  /// allocation itself fails.  Kept for callers with no degradation path.
  void grow_unsynchronized() {
    PINT_CHECK_MSG(try_grow_unsynchronized(0),
                   "AhQueue ring growth failed (allocation)");
  }

 private:
  // Debug-only single-producer enforcement: the first producer-side call
  // pins its thread id; every later call must come from the same thread.
  void assert_single_producer() {
#ifndef NDEBUG
    const std::thread::id self = std::this_thread::get_id();
    std::thread::id expected{};  // "no producer yet"
    if (!producer_.compare_exchange_strong(expected, self,
                                           std::memory_order_relaxed)) {
      PINT_CHECK_MSG(expected == self,
                     "AhQueue producer-side call from a second thread "
                     "(single-producer contract violated)");
    }
#endif
  }

  // Atomic only for monitoring reads of capacity(): every mutation happens
  // at consumer quiescence and every hot-path load is relaxed (plain mov).
  std::atomic<std::uint64_t> mask_;
  std::unique_ptr<detect::Strand*[]> slots_;
  alignas(64) std::atomic<std::uint64_t> head_{0};
  // Producer-owned reclaim cursor; atomic only for cross-thread reclaimed().
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  std::atomic<int> active_consumers_{0};
#ifndef NDEBUG
  std::atomic<std::thread::id> producer_{};
#endif
};

}  // namespace pint::pintd
