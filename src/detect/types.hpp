#pragma once

// Shared value types for the race detectors: byte intervals, the runtime
// access coalescer, and deferred-free records.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "support/assert.hpp"

namespace pint::detect {

using addr_t = std::uint64_t;

/// Inclusive byte range [lo, hi].
struct Interval {
  addr_t lo = 0;
  addr_t hi = 0;
  bool operator==(const Interval&) const = default;
};

/// A heap block whose free() was deferred to the writer treap worker
/// (paper §III-F): `base` is passed to ::free (null once a detector freed
/// it earlier), [lo, hi] is the byte range to clear from the access history.
struct HeapFree {
  void* base = nullptr;
  addr_t lo = 0;
  addr_t hi = 0;
};

/// Which code path finalize() took for a buffer (seal-time accounting).
enum class FinalizePath : std::uint8_t {
  kNone,    ///< nothing to do (<=1 interval or coalesce off)
  kSorted,  ///< already-sorted input: merge scan only, no sort
  kScalar,  ///< std::sort + scalar merge
};

/// Sort-merge `items` into the canonical minimal sorted disjoint set.
/// Implemented in detect/merge.cpp.
FinalizePath finalize_intervals(std::vector<Interval>& items);

/// Runtime access coalescer (the STINT mechanism PINT reuses): an access
/// that extends or overlaps one of the most recent intervals is merged on
/// the fly - checking the last few entries (not just one) handles the
/// interleaved access streams of real inner loops, e.g. B[k][j] / C[i][j] in
/// a GEMM.  Everything that escapes the fast path is sort-merged when the
/// strand ends.  This is what turns per-access instrumentation into
/// per-interval access-history operations.
class AccessBuffer {
 public:
  static constexpr std::size_t kTails = 4;
  /// Shrink-to-slab bound: clear() releases backing store grown past this
  /// many intervals, so one outlier strand does not pin a huge buffer across
  /// every same-run pool reuse of its Strand record.
  static constexpr std::size_t kSlabIntervals = 4096;

  /// Records without any merging - the "no runtime coalescing" ablation.
  void add_raw(addr_t lo, addr_t hi) {
    PINT_ASSERT(lo <= hi);
    items_.push_back({lo, hi});
  }

  void add(addr_t lo, addr_t hi) {
    PINT_ASSERT(lo <= hi);
    const std::size_t n = items_.size();
    const std::size_t probes = n < kTails ? n : kTails;
    for (std::size_t t = 0; t < probes; ++t) {
      Interval& b = items_[n - 1 - t];
      if (lo >= b.lo && lo <= b.hi + 1) {  // extends / overlaps this stream
        if (hi > b.hi) b.hi = hi;
        ++tail_hits_;
        return;
      }
    }
    ++tail_misses_;
    items_.push_back({lo, hi});
  }

  /// Extends item `i` to cover [lo, hi] when it starts exactly at `lo`
  /// (the cursor's same-start spill merge); false, touching nothing, when
  /// `i` is out of range or starts elsewhere.  Counts as an absorbed add.
  bool merge_at(std::size_t i, addr_t lo, addr_t hi) {
    if (i >= items_.size() || items_[i].lo != lo) return false;
    if (hi > items_[i].hi) items_[i].hi = hi;
    ++tail_hits_;
    return true;
  }

  /// Sort-merge all buffered intervals in place. After this, items() is a
  /// minimal sorted set of disjoint intervals. When `coalesce` is false the
  /// buffer is left exactly as recorded (ablation mode: every access becomes
  /// its own access-history operation, modulo the tail fast path).
  /// Dispatches to detect/merge.cpp: an already-sorted input skips the sort
  /// (fin_path() says which ran).
  void finalize(bool coalesce = true) {
    canonical_ = coalesce || items_.size() <= 1;
    fin_path_ = FinalizePath::kNone;
    if (!coalesce || items_.size() <= 1) return;
    fin_path_ = finalize_intervals(items_);
  }

  const std::vector<Interval>& items() const { return items_; }
  bool empty() const { return items_.empty(); }
  std::size_t raw_count() const { return items_.size(); }
  void clear() {
    items_.clear();
    if (items_.capacity() > kSlabIntervals) {
      std::vector<Interval> slab;
      slab.reserve(kSlabIntervals);
      items_.swap(slab);
    }
    canonical_ = false;
    fin_path_ = FinalizePath::kNone;
    tail_hits_ = tail_misses_ = 0;
  }

  /// True after finalize() left items() sorted and pairwise disjoint - the
  /// precondition of the history stores' bulk *_run apply.  False until the
  /// buffer is finalized, and after a coalesce-off (raw order) finalize with
  /// more than one interval.
  bool canonical() const { return canonical_; }

  /// Seal-time accounting, folded into Stats by the detectors and reset by
  /// clear() when the strand is recycled.
  FinalizePath fin_path() const { return fin_path_; }
  std::uint64_t tail_hits() const { return tail_hits_; }
  std::uint64_t tail_misses() const { return tail_misses_; }

 private:
  std::vector<Interval> items_;
  std::uint64_t tail_hits_ = 0;
  std::uint64_t tail_misses_ = 0;
  bool canonical_ = false;
  FinalizePath fin_path_ = FinalizePath::kNone;
};

inline addr_t addr_of(const void* p) {
  return reinterpret_cast<addr_t>(p);
}

}  // namespace pint::detect
