#pragma once

// The unified detector run API.
//
// Every detector in the repo (PINT, STINT, C-RACER, the test oracle) runs a
// task-parallel program to completion and leaves behind a race report plus
// counters.  This header is the one seam through which callers drive any of
// them: `run()` returns the shared `RunResult`, and `DetectorRunner` is the
// minimal interface the bench harness and tests dispatch through instead of
// per-system switch branches.
//
// `RunStatus`/`RunResult` originated as PINT's degradation report (see
// DESIGN.md "Failure model & degradation"); the synchronous detectors cannot
// degrade and always return kOk, which is exactly what makes the shared type
// safe: callers check `ok()` uniformly and only PINT ever says otherwise.

#include <cstdint>
#include <functional>

#include "detect/report.hpp"
#include "detect/stats.hpp"
#include "detect/tuning.hpp"
#include "detect/types.hpp"

namespace pint::detect {

/// Terminal status of one detection run.  Anything other than kOk means the
/// pipeline degraded; the reporter/stats still describe whatever detection
/// work completed.
enum class RunStatus : std::uint8_t {
  kOk = 0,
  /// An allocation failed (strand/trace/chunk pool, or the sequential-mode
  /// ring cap was hit).  The run completed by draining the pipeline and/or
  /// shedding strands; detection results cover the surviving strands.
  kOutOfMemory = 1,
  /// The watchdog found a busy pipeline stage silent past its deadline,
  /// dumped a progress snapshot to the error sink, and cancelled the
  /// history pipeline so run() could return instead of hanging.
  kStalled = 2,
};

struct RunResult {
  RunStatus status = RunStatus::kOk;
  /// History threads could not be spawned; the run fell back to the
  /// paper's sequential one-core history mode (status stays kOk - the
  /// detection itself is complete and exact).
  bool degraded_sequential_history = false;
  bool watchdog_tripped = false;
  /// Strands shed at the sequential-mode ring cap (kOutOfMemory only).
  std::uint64_t dropped_strands = 0;

  bool ok() const { return status == RunStatus::kOk; }
  const char* status_name() const {
    switch (status) {
      case RunStatus::kOk: return "ok";
      case RunStatus::kOutOfMemory: return "out-of-memory";
      case RunStatus::kStalled: return "stalled";
    }
    return "?";
  }
};

/// Options every detector shares.  Each detector's `Options` derives from
/// this, so callers keep writing `o.coalesce = ...` while the harness can
/// fill the common knobs without knowing which detector it holds.  Detectors
/// that have no use for a field ignore it (C-RACER checks per access, so
/// `coalesce` is inert there; the oracle ignores everything but
/// `stack_bytes`).
struct CommonOptions {
  /// Runtime coalescing of accesses into intervals (ablation knob).
  bool coalesce = true;
  std::size_t stack_bytes = std::size_t(1) << 18;
  bool verbose_races = false;
  std::uint64_t seed = 42;
  /// Cross-cutting knobs (DESIGN.md §12.5).  Defaults to the live globals +
  /// the PINT_TUNING overlay at construction; run() applies the global
  /// subset back, so editing this struct is the one place to tune a run.
  Tuning tuning = Tuning::from_env();
};

/// The dispatch seam: run a program under detection, harvest the results.
/// Implementations are single-use - construct, run once, read reporter and
/// stats, destroy.
class DetectorRunner {
 public:
  virtual ~DetectorRunner() = default;
  /// Executes fn() to completion under race detection.
  virtual RunResult run(std::function<void()> fn) = 0;
  virtual RaceReporter& reporter() = 0;
  virtual const Stats& stats() const = 0;
  virtual const char* name() const = 0;
};

}  // namespace pint::detect
