#pragma once

// C-RACER baseline (Utterback et al., SPAA'16): the state-of-the-art
// *parallel* race detector with conventional hashmap-style access history.
//
// Same reachability engine as PINT (DePa path labels), but the
// access history is shadow memory queried and updated *synchronously at
// every memory access* - the cost profile PINT's interval-based history is
// designed to beat.  Because checks are per-access, strands need no interval
// buffers; each strand is just a label + id, allocated from an arena and
// referenced by shadow cells for the rest of the run.

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>

#include "cracer/shadow.hpp"
#include "detect/detector.hpp"
#include "detect/report.hpp"
#include "detect/run_result.hpp"
#include "detect/stats.hpp"
#include "reach/depa.hpp"
#include "runtime/scheduler.hpp"
#include "support/spinlock.hpp"
#include "support/timer.hpp"

namespace pint::cracer {

class CracerDetector final : public detect::Detector,
                             public detect::DetectorRunner,
                             public rt::SchedulerHooks {
 public:
  /// The shared `coalesce`/`history` knobs are inert here: C-RACER checks at
  /// every access, so there is nothing to coalesce and no interval store.
  struct Options : detect::CommonOptions {
    int workers = 1;
    std::size_t shadow_table_pow2 = std::size_t(1) << 16;
  };

  CracerDetector() : CracerDetector(Options{}) {}
  explicit CracerDetector(const Options& opt);

  /// Executes fn() in parallel under per-access race detection. Single-use.
  /// The synchronous design cannot degrade: the result is always kOk.
  detect::RunResult run(std::function<void()> fn) override;

  detect::RaceReporter& reporter() override { return rep_; }
  const detect::Stats& stats() const override { return stats_; }

  // --- detect::Detector ---
  void on_access(rt::Worker& w, rt::TaskFrame& f, detect::addr_t lo,
                 detect::addr_t hi, bool is_write) override;
  void on_heap_free(rt::Worker& w, rt::TaskFrame& f, void* base,
                    detect::addr_t lo, detect::addr_t hi) override;
  void on_lock_acquire(rt::Worker& w, rt::TaskFrame& f,
                       detect::addr_t lock) override;
  void on_lock_release(rt::Worker& w, rt::TaskFrame& f,
                       detect::addr_t lock) override;
  const char* name() const override { return "C-RACER"; }

  // --- rt::SchedulerHooks ---
  void on_root_start(rt::Worker& w, rt::TaskFrame& f) override;
  void on_spawn(rt::Worker& w, rt::TaskFrame& parent, rt::SyncBlock& blk,
                rt::TaskFrame& child) override;
  void on_spawn_return(rt::Worker& w, rt::TaskFrame& child,
                       bool continuation_stolen) override;
  void on_continuation(rt::Worker& w, rt::TaskFrame& parent, bool stolen) override;
  void on_after_sync(rt::Worker& w, rt::TaskFrame& f, rt::SyncBlock& blk,
                     bool trivial) override;

 private:
  AccessorRec* alloc_strand(const reach::Engine::Label& label, const char* tag,
                            detect::lockset_t lsid = 0);
  void read_cell(ShadowCell& c, const AccessorRec& me);
  void write_cell(ShadowCell& c, const AccessorRec& me);
  void on_lock_event(rt::TaskFrame& f, detect::addr_t lock, bool acquire);

  Options opt_;
  reach::Engine reach_;
  detect::RaceReporter rep_;
  detect::Stats stats_;
  ShadowMemory shadow_;

  // Strand arena: labels/ids live in shadow cells for the whole run.
  Spinlock arena_mu_;
  std::deque<AccessorRec> arena_;
  std::atomic<std::uint64_t> next_sid_{0};
  std::atomic<std::uint64_t> strands_{0};
  bool used_ = false;
};

}  // namespace pint::cracer
