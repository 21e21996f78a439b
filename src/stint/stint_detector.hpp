#pragma once

// STINT baseline (Xu et al., ALENEX'22): the *sequential* interval-based
// race detector PINT parallelizes.
//
// STINT executes the task-parallel program on one worker (the serial
// elision order), coalesces each strand's accesses into intervals with the
// same mechanism PINT uses, and maintains a synchronous two-treap access
// history: one last-writer treap and one reader treap holding the single
// relevant reader per interval (the Feng-Leiserson serial rule: a new
// reader replaces the stored one only when the stored one precedes it).
//
// Everything - race checks, inserts, stack clearing, heap frees - happens
// inline at the end of each strand, on the single execution thread: STINT
// calls the history driver (detect/history_driver.hpp) at every seal.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "detect/detector.hpp"
#include "detect/history_driver.hpp"
#include "detect/report.hpp"
#include "detect/run_result.hpp"
#include "detect/stats.hpp"
#include "detect/strand.hpp"
#include "reach/depa.hpp"
#include "runtime/scheduler.hpp"
#include "store/interval_store.hpp"

namespace pint::stint {

class StintDetector final : public detect::Detector,
                            public detect::DetectorRunner,
                            public rt::SchedulerHooks {
 public:
  /// All knobs are the shared ones (`history` selects the STINT treap vs the
  /// per-granule hashmap ablation).
  struct Options : detect::CommonOptions {};

  StintDetector() : StintDetector(Options{}) {}
  explicit StintDetector(const Options& opt);
  ~StintDetector() override;

  /// Executes fn() sequentially under race detection. Single-use.  The
  /// synchronous design cannot degrade: the result is always kOk.
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
  const char* name() const override { return "STINT"; }

  // --- rt::SchedulerHooks ---
  void on_root_start(rt::Worker& w, rt::TaskFrame& f) override;
  void on_root_end(rt::Worker& w, rt::TaskFrame& f) override;
  void on_spawn(rt::Worker& w, rt::TaskFrame& parent, rt::SyncBlock& blk,
                rt::TaskFrame& child) override;
  void on_spawn_return(rt::Worker& w, rt::TaskFrame& child,
                       bool continuation_stolen) override;
  void on_continuation(rt::Worker& w, rt::TaskFrame& parent, bool stolen) override;
  void on_sync(rt::Worker& w, rt::TaskFrame& f, rt::SyncBlock& blk,
               bool trivial) override;
  void on_after_sync(rt::Worker& w, rt::TaskFrame& f, rt::SyncBlock& blk,
                     bool trivial) override;

 private:
  detect::Strand* alloc_strand();
  void recycle_strand(detect::Strand* s);
  /// Synchronous end-of-strand processing: check + insert + clear, then
  /// recycle the record.  Drains the execution thread's AccessCursor first
  /// (process_strand is only ever called on the current strand).
  void process_strand(detect::Strand* s);

  Options opt_;
  reach::Engine reach_;
  detect::RaceReporter rep_;
  detect::Stats stats_;
  detect::HistoryDriver<store::Handle> history_;

  detect::Strand* free_list_ = nullptr;
  std::vector<std::unique_ptr<detect::Strand>> owned_;
  std::uint64_t next_sid_ = 0;
  detect::CoreTally tally_;
  bool used_ = false;
};

}  // namespace pint::stint
