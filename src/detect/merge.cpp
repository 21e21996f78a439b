#include "detect/types.hpp"

// AccessBuffer::finalize backend (DESIGN.md §13): turn the recorded interval
// list into the canonical minimal sorted disjoint set.
//
// Two routes, producing the identical bytes (the canonical set is unique,
// so the route is unobservable in results - only in Stats):
//
//  * already-sorted scan: one branchless-friendly pass detects sortedness;
//    streaming kernels record monotonically increasing spill streams, so
//    they skip the sort entirely and go straight to the merge loop.
//  * scalar: std::sort + the same merge loop.

#include <algorithm>

namespace pint::detect {

namespace {

bool sorted_by_lo(const Interval* a, std::size_t n) {
  // Accumulate instead of early-exit: the loop auto-vectorizes and the
  // common callers are either fully sorted or unsorted within a few lanes.
  bool ok = true;
  for (std::size_t i = 1; i < n; ++i) ok &= a[i].lo >= a[i - 1].lo;
  return ok;
}

/// Merges overlapping or adjacent neighbours.  Input must be sorted by lo;
/// returns the new size.  Adjacency is tested as lo == hi + 1 after the
/// overlap test, so an interval ending at the top address (where hi + 1
/// wraps to 0) still absorbs everything after it.
std::size_t merge_sorted(Interval* a, std::size_t n) {
  std::size_t out = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (a[i].lo <= a[out].hi || a[i].lo == a[out].hi + 1) {
      a[out].hi = std::max(a[out].hi, a[i].hi);
    } else {
      a[++out] = a[i];
    }
  }
  return out + 1;
}

}  // namespace

FinalizePath finalize_intervals(std::vector<Interval>& items) {
  const std::size_t n = items.size();
  PINT_ASSERT(n >= 2);
  FinalizePath path = FinalizePath::kSorted;
  if (!sorted_by_lo(items.data(), n)) {
    std::sort(items.begin(), items.end(),
              [](const Interval& a, const Interval& b) { return a.lo < b.lo; });
    path = FinalizePath::kScalar;
  }
  items.resize(merge_sorted(items.data(), n));
  return path;
}

}  // namespace pint::detect
