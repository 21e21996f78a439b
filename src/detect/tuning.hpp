#pragma once

// One struct for every cross-cutting detector knob (DESIGN.md §12.5).
//
// The bulk-apply, access-fast-path and cursor-policy toggles are process
// globals (they live next to the thread-local cursor machinery); the memo
// and lock-edge toggles are per-detector.  Tuning gathers all of them so
// callers set knobs in ONE place - `options.tuning.bulk_apply = false` -
// instead of hunting for per-subsystem setters, and so the environment
// override (PINT_TUNING=...) is parsed in one place instead of three.
//
// Lifecycle: a default-constructed Tuning snapshots the LIVE globals plus
// the PINT_TUNING overlay, so `CommonOptions` built after a test flipped a
// legacy setter still honors that setter.  Detector::run() calls
// apply_globals() at start (quiescence: the scheduler is not running yet),
// which writes the global knobs back - a no-op unless the caller edited the
// struct.

#include "detect/instrument.hpp"

namespace pint::detect {

struct Tuning {
  /// Sorted-run bulk store apply (DESIGN.md §10).  Global knob.
  bool bulk_apply = true;
  /// Thread-local AccessCursor fast path (DESIGN.md §9).  Global knob.
  bool access_fast_path = true;
  /// Cursor miss-path policy (DESIGN.md §11).  Global knob.
  CursorPolicy cursor_policy = CursorPolicy::kAdaptive;
  /// Per-lane relation() memo caches (DESIGN.md §11.2).  Per-detector: off
  /// means the detector passes null memos, the bit-identity ablation.
  bool memo = true;
  /// Lock-aware detection (DESIGN.md §12): handle the lock hooks and filter
  /// conflicts whose segments share a mutex.  Per-detector: off ignores
  /// lock events entirely (records keep lsid 0, the pre-lock behavior).
  bool lock_edges = true;
  /// Arena-batched allocation (DESIGN.md §13): strand/trace/chunk pools and
  /// interval-store node chunks draw from process-wide recyclers and retire
  /// wholesale.  Global knob; changes allocation provenance only, never
  /// stored bytes - results are bit-identical either way.
  bool arena = true;
  /// SIMD/branchless AccessBuffer::finalize (DESIGN.md §13): sortedness
  /// detector + radix bucketing + AVX2 merge mask, runtime-dispatched with
  /// a bit-identical scalar fallback.  Global knob.
  bool simd = true;

  /// Snapshot of the live global knobs + per-detector defaults.
  static Tuning current();

  /// current() overlaid with the PINT_TUNING environment variable, e.g.
  ///   PINT_TUNING=bulk=off,cursor=wide,memo=on,locks=off,arena=off,simd=off
  /// Unknown keys/values warn once on stderr and are ignored.
  static Tuning from_env();

  /// Overlay a spec string ("bulk=off,cursor=adaptive,...") onto `base`.
  static Tuning parse(const char* spec, Tuning base);

  /// Push the global knobs (bulk_apply / access_fast_path / cursor_policy /
  /// arena / simd) into their process globals.  Call only at quiescence.
  void apply_globals() const;

  bool operator==(const Tuning&) const = default;
};

}  // namespace pint::detect
