#pragma once

// PINT public API - the single stable header for embedders.
//
// Everything an instrumented program needs lives here: the detector factory
// (`DetectorKind` / `DetectorSpec` / `make_detector`), the shared options +
// result types (`detect::CommonOptions`, `detect::Tuning`,
// `detect::RunResult`), the instrumentation facade (record_read/record_write,
// lock_acquire/lock_release, dmalloc/dfree and the PINT_* macros below), and
// the fork-join runtime (rt::SpawnScope, parallel_for).  Sub-headers under
// src/ remain includable but are NOT a stability boundary; this header is
// the only stable entry point (the old `pint.hpp` alias is gone).
//
// Quickstart:
//
//   #include "pint_api.hpp"
//
//   void work(std::vector<long>& v) {
//     pint::rt::SpawnScope sc;             // a Cilk sync block
//     sc.spawn([&] {
//       PINT_WRITE(&v[0], 8);              // instrument accesses
//       v[0] = 1;
//     });
//     PINT_WRITE(&v[0], 8);                // races with the child!
//     v[0] = 2;
//     sc.sync();                           // (also implicit in ~SpawnScope)
//   }
//
//   int main() {
//     std::vector<long> v(1);
//     pint::DetectorSpec spec;             // defaults: PINT, 1 core worker
//     spec.workers = 4;                    // + 2 history workers
//     auto det = pint::make_detector(spec);
//     det->run([&] { work(v); });
//     return det->reporter().any() ? 1 : 0;
//   }
//
// Mutex-guarded programs: wrap acquire/release in PINT_LOCK_ACQUIRE /
// PINT_LOCK_RELEASE (or use detect-aware guards like InstrumentedLockGuard);
// two parallel accesses that held a common lock are then filtered out of the
// race set (DESIGN.md §12).

#include <functional>
#include <memory>

#include "cracer/cracer_detector.hpp"
#include "detect/instrument.hpp"
#include "detect/run_result.hpp"
#include "detect/tuning.hpp"
#include "kernels/kernels.hpp"
#include "oracle/oracle_detector.hpp"
#include "pint/pint_detector.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/scheduler.hpp"
#include "stint/stint_detector.hpp"
#include "support/telemetry.hpp"

namespace pint {

/// Which detector implementation make_detector() builds.
enum class DetectorKind {
  kPint,    ///< the paper's parallel interval-based detector
  kStint,   ///< sequential interval baseline (ALENEX'22)
  kCracer,  ///< per-access shadow-memory baseline (SPAA'16)
  kOracle,  ///< exact test oracle: one worker, every accessor kept
};

inline const char* detector_kind_name(DetectorKind k) {
  switch (k) {
    case DetectorKind::kPint: return "PINT";
    case DetectorKind::kStint: return "STINT";
    case DetectorKind::kCracer: return "C-RACER";
    case DetectorKind::kOracle: return "oracle";
  }
  return "?";
}

/// One spec for any detector.  The common block (seed, coalesce, history
/// store, tuning) applies everywhere; the remaining knobs map onto the
/// detector that understands them and are ignored by the others.
struct DetectorSpec {
  DetectorKind kind = DetectorKind::kPint;
  /// Shared knobs, including detect::Tuning (access fast path, lock
  /// edges) - see detect/run_result.hpp.
  detect::CommonOptions common;
  /// Program workers: PINT core workers / C-RACER workers.  STINT and the
  /// oracle are sequential by construction and ignore it.
  int workers = 1;
  /// PINT only: false = the paper's phased one-core history mode.
  bool parallel_history = true;
  /// PINT only: 0 = the paper's 3 role workers, N > 0 = address-sharded.
  int history_shards = 0;
};

/// Builds the requested detector behind the uniform run/reporter/stats seam.
std::unique_ptr<detect::DetectorRunner> make_detector(const DetectorSpec& spec);

}  // namespace pint

// ---------------------------------------------------------------------------
// Instrumentation macros (the Tapir-pass substitute, spelled as macros so an
// uninstrumented build can compile them away with -DPINT_DISABLE_INSTRUMENT).
// ---------------------------------------------------------------------------

#ifndef PINT_DISABLE_INSTRUMENT
#define PINT_READ(ptr, bytes) ::pint::record_read((ptr), (bytes))
#define PINT_WRITE(ptr, bytes) ::pint::record_write((ptr), (bytes))
#define PINT_LOCK_ACQUIRE(mutex_ptr) ::pint::lock_acquire((mutex_ptr))
#define PINT_LOCK_RELEASE(mutex_ptr) ::pint::lock_release((mutex_ptr))
#else
#define PINT_READ(ptr, bytes) ((void)0)
#define PINT_WRITE(ptr, bytes) ((void)0)
#define PINT_LOCK_ACQUIRE(mutex_ptr) ((void)0)
#define PINT_LOCK_RELEASE(mutex_ptr) ((void)0)
#endif
