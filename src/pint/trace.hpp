#pragma once

// The trace data structure (paper §III-E, Algorithm 1).
//
// A Trace is a single-producer single-consumer FIFO of executed strands:
// the owning core worker appends each strand when it ends; the writer treap
// worker consumes them in order (collection Rule 2).  A core worker puts its
// current trace away and starts a new one exactly when it executes a stolen
// continuation or passes a non-trivial sync, which yields the three Lemma-1
// properties the collection rules depend on.
//
// Storage is a linked list of fixed-size chunks of Strand* slots (the
// paper's footnote 2 uses the same layout).  Slots are written with release
// stores and read with acquire loads; a null slot means "not produced yet"
// unless the trace is finished.  Strand objects may be recycled the moment
// the consumer moves past them, so the consumer must never re-read a slot.
//
// Traces of one worker form their own SPSC linked list in creation order;
// the consumer advances to the next trace only after the current one is
// finished and fully drained (front-trace FIFO is deadlock-free; see
// DESIGN.md §2.4).

#include <atomic>
#include <cstdint>

#include "detect/strand.hpp"
#include "support/assert.hpp"
#include "support/spinlock.hpp"

namespace pint::pintd {

struct TraceChunk {
  static constexpr std::size_t kSlots = 128;
  std::atomic<detect::Strand*> slots[kSlots] = {};
  std::atomic<TraceChunk*> next{nullptr};

  /// Empties a recycled chunk (alloc_chunk applies it to every chunk it
  /// hands out, fresh ones included).
  void reset() {
    for (auto& slot : slots) slot.store(nullptr, std::memory_order_relaxed);
    next.store(nullptr, std::memory_order_relaxed);
  }
};

class Trace {
 public:
  // --- producer side (core worker) ---
  void init(TraceChunk* first_chunk) {
    head_ = tail_ = first_chunk;
    p_index_ = 0;
    c_chunk_ = first_chunk;
    c_index_ = 0;
    first_collected_ = false;
    finished_.store(false, std::memory_order_relaxed);
    next_trace_.store(nullptr, std::memory_order_relaxed);
  }

  /// Appends a strand; needs a fresh chunk when the current one is full
  /// (caller allocates to keep pools out of this class).
  bool push_needs_chunk() const { return p_index_ == TraceChunk::kSlots; }
  void supply_chunk(TraceChunk* c) {
    PINT_ASSERT(push_needs_chunk());
    tail_->next.store(c, std::memory_order_release);
    tail_ = c;
    p_index_ = 0;
  }
  void push(detect::Strand* s) {
    PINT_ASSERT(!push_needs_chunk());
    tail_->slots[p_index_].store(s, std::memory_order_release);
    ++p_index_;
  }

  void mark_finished() { finished_.store(true, std::memory_order_release); }

  // --- consumer side (writer treap worker) ---
  /// Next uncollected strand, or nullptr if none is available right now.
  detect::Strand* peek() {
    if (c_index_ == TraceChunk::kSlots) {
      TraceChunk* n = c_chunk_->next.load(std::memory_order_acquire);
      if (n == nullptr) return nullptr;
      // The drained chunk is recycled by the caller via take_drained_chunk.
      drained_ = c_chunk_;
      c_chunk_ = n;
      c_index_ = 0;
    }
    return c_chunk_->slots[c_index_].load(std::memory_order_acquire);
  }
  void pop() { ++c_index_; }

  /// After peek() switched chunks, the consumer can recycle the old one.
  TraceChunk* take_drained_chunk() {
    TraceChunk* c = drained_;
    drained_ = nullptr;
    return c;
  }

  /// True once the producer finished this trace and everything is consumed.
  bool drained() {
    if (peek() != nullptr) return false;
    if (!finished_.load(std::memory_order_acquire)) return false;
    // finished was set after the last push; re-check for a strand that
    // landed between our peek and the finished load.
    return peek() == nullptr;
  }

  bool first_collected() const { return first_collected_; }
  void set_first_collected() { first_collected_ = true; }

  Trace* next_trace() { return next_trace_.load(std::memory_order_acquire); }
  void set_next_trace(Trace* t) {
    next_trace_.store(t, std::memory_order_release);
  }
  TraceChunk* last_chunk_for_recycle() { return c_chunk_; }

 private:
  // producer
  TraceChunk* head_ = nullptr;
  TraceChunk* tail_ = nullptr;
  std::size_t p_index_ = 0;
  std::atomic<bool> finished_{false};
  std::atomic<Trace*> next_trace_{nullptr};
  // consumer
  TraceChunk* c_chunk_ = nullptr;
  std::size_t c_index_ = 0;
  TraceChunk* drained_ = nullptr;
  bool first_collected_ = false;
};

}  // namespace pint::pintd
