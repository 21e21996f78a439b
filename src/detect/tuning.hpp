#pragma once

// One struct for every cross-cutting detector knob (DESIGN.md §12.5).
//
// The access-fast-path toggle is a process global (it lives next to the
// thread-local cursor machinery); the lock-edge toggle is per-detector.
// Tuning gathers both so callers set knobs in ONE place -
// `options.tuning.lock_edges = false` - and so the environment override
// (PINT_TUNING=...) is parsed in one place.
//
// Lifecycle: a default-constructed Tuning snapshots the LIVE global plus
// the PINT_TUNING overlay, so `CommonOptions` built after a test flipped
// set_access_fast_path still honors that setter.  Detector::run() calls
// apply_globals() at start (quiescence: the scheduler is not running yet),
// which writes the global knob back - a no-op unless the caller edited the
// struct.

#include "detect/instrument.hpp"

namespace pint::detect {

struct Tuning {
  /// Thread-local AccessCursor fast path (DESIGN.md §9).  Global knob.
  bool access_fast_path = true;
  /// Lock-aware detection (DESIGN.md §12): handle the lock hooks and filter
  /// conflicts whose segments share a mutex.  Per-detector: off ignores
  /// lock events entirely (records keep lsid 0, the pre-lock behavior).
  bool lock_edges = true;

  /// Snapshot of the live global knob + per-detector defaults.
  static Tuning current();

  /// current() overlaid with the PINT_TUNING environment variable, e.g.
  ///   PINT_TUNING=fastpath=on,locks=off
  /// Unknown keys/values warn once on stderr and are ignored, as are the
  /// removed knobs' keys (cursor=, memo=, simd=, arena=, bulk=).
  static Tuning from_env();

  /// Overlay a spec string ("fastpath=off,locks=on,...") onto `base`.
  static Tuning parse(const char* spec, Tuning base);

  /// Push the global knob (access_fast_path) into its process global.
  /// Call only at quiescence.
  void apply_globals() const;

  bool operator==(const Tuning&) const = default;
};

}  // namespace pint::detect
