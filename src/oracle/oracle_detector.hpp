#pragma once

// Exact-oracle detector, used only by tests.
//
// Runs the program on ONE worker (the serial elision order, which is always
// DAG-conforming) and keeps, per byte granule, EVERY accessor ever seen (not
// the 1/2/3-accessor summaries real detectors keep).  A race is recorded for
// every conflicting parallel pair, so the oracle's race set is the ground
// truth that the real detectors' iff-guarantee (Theorem 5) is validated
// against: a detector must report something iff the oracle's set is
// non-empty, and every pair a detector reports must be in the oracle's set.
//
// Intended for small tests only: memory/time is proportional to accessors
// kept per location.

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "detect/detector.hpp"
#include "detect/report.hpp"
#include "detect/run_result.hpp"
#include "detect/stats.hpp"
#include "detect/strand.hpp"
#include "reach/depa.hpp"
#include "runtime/scheduler.hpp"

namespace pint::oracle {

class OracleDetector final : public detect::Detector,
                             public detect::DetectorRunner,
                             public rt::SchedulerHooks {
 public:
  /// Of the shared knobs only `stack_bytes` matters to the oracle (it keeps
  /// raw accesses, so there is nothing to coalesce and no history store to
  /// swap); they exist so the oracle runs through the same seam as the real
  /// detectors.
  struct Options : detect::CommonOptions {
    /// Granule for exact tracking; tests use byte-accurate (1).
    std::size_t granule = 1;
  };

  OracleDetector() : OracleDetector(Options{}) {}
  explicit OracleDetector(const Options& opt);
  ~OracleDetector() override;

  /// Serial exhaustive detection; cannot degrade, always returns kOk.
  detect::RunResult run(std::function<void()> fn) override;

  detect::RaceReporter& reporter() override { return rep_; }
  const detect::Stats& stats() const override { return stats_; }

  /// All conflicting parallel pairs, as symmetric (min sid, max sid) pairs.
  const std::set<std::pair<std::uint64_t, std::uint64_t>>& race_pairs() const {
    return pairs_;
  }
  bool any_race() const { return !pairs_.empty(); }
  /// Is (a, b) a true racing pair?
  bool is_racing_pair(std::uint64_t a, std::uint64_t b) const {
    if (a > b) std::swap(a, b);
    return pairs_.count({a, b}) != 0;
  }

  // --- detect::Detector ---
  void on_access(rt::Worker& w, rt::TaskFrame& f, detect::addr_t lo,
                 detect::addr_t hi, bool is_write) override;
  void on_heap_free(rt::Worker& w, rt::TaskFrame& f, void* base,
                    detect::addr_t lo, detect::addr_t hi) override;
  void on_lock_acquire(rt::Worker& w, rt::TaskFrame& f,
                       detect::addr_t lock) override;
  void on_lock_release(rt::Worker& w, rt::TaskFrame& f,
                       detect::addr_t lock) override;
  const char* name() const override { return "oracle"; }

  // --- rt::SchedulerHooks ---
  void on_root_start(rt::Worker& w, rt::TaskFrame& f) override;
  void on_spawn(rt::Worker& w, rt::TaskFrame& parent, rt::SyncBlock& blk,
                rt::TaskFrame& child) override;
  void on_spawn_return(rt::Worker& w, rt::TaskFrame& child, bool stolen) override;
  void on_continuation(rt::Worker& w, rt::TaskFrame& parent, bool stolen) override;
  void on_after_sync(rt::Worker& w, rt::TaskFrame& f, rt::SyncBlock& blk,
                     bool trivial) override;

 private:
  struct StrandInfo {
    reach::Engine::Label label;
    std::uint64_t sid;
    detect::lockset_t lsid = 0;  // lockset held during this segment
  };
  struct Access {
    StrandInfo* who;
    bool write;
  };

  StrandInfo* alloc_strand(const reach::Engine::Label& l,
                           detect::lockset_t lsid = 0);
  void on_lock_event(rt::TaskFrame& f, detect::addr_t lock, bool acquire);
  void record(StrandInfo* who, detect::addr_t lo, detect::addr_t hi, bool write);
  void clear_range(detect::addr_t lo, detect::addr_t hi);

  Options opt_;
  reach::Engine reach_;
  detect::RaceReporter rep_;
  detect::Stats stats_;
  std::vector<StrandInfo*> strands_;
  std::uint64_t next_sid_ = 0;
  std::map<detect::addr_t, std::vector<Access>> bytes_;  // granule -> history
  std::set<std::pair<std::uint64_t, std::uint64_t>> pairs_;
  bool used_ = false;
};

}  // namespace pint::oracle
