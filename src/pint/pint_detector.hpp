#pragma once

// PINT - Parallel INTerval-based race detector (the paper's contribution).
//
// Architecture (paper §III):
//  * CORE COMPONENT: `core_workers` workers execute the program under the
//    continuation-stealing scheduler, maintain DePa reachability labels
//    (in the paper's WSP-Order role), coalesce each strand's accesses into
//    intervals, and deposit finished strands into per-worker trace FIFOs
//    (Algorithm 1).
//  * ACCESS-HISTORY COMPONENT: two history workers run asynchronously.  The
//    WRITER worker collects ready strands from the traces in a
//    DAG-conforming order (Algorithm 2 + collection rules), appends them to
//    the shared access-history queue, maintains the last-writer store,
//    and, when several core workers make several traces, performs deferred
//    heap frees and releases retired fiber stacks.  The
//    READER worker follows the queue with a private cursor and maintains
//    one two-sided store holding both the left-most and the right-most
//    reader of every segment (the paper's two reader treaps; DESIGN.md §3).
//
// Both history workers run the history driver (detect/history_driver.hpp),
// the same object STINT calls inline: the writer lane applies its writer
// role and the reader lane its reader role.  The §VI extension
// (`history_shards` = N) replaces the reader lane with N lanes that each
// apply both roles to one address stripe, and the writer lane only
// collects.  Queue hand-off, deferred frees, fiber release, lane parking,
// the watchdog and the out-of-memory wait are pipeline work and live here.
//
// One-core mode (`parallel_history = false`) reproduces the paper's
// single-core PINT measurement: the core component runs to completion first
// and the history lanes run afterwards, one phase each, on the calling
// thread, which makes the Fig. 2 work breakdown directly measurable.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "detect/detector.hpp"
#include "detect/history_driver.hpp"
#include "detect/report.hpp"
#include "detect/run_result.hpp"
#include "detect/stats.hpp"
#include "detect/strand.hpp"
#include "pint/ah_queue.hpp"
#include "pint/pool.hpp"
#include "pint/trace.hpp"
#include "pint/wake_word.hpp"
#include "reach/depa.hpp"
#include "runtime/scheduler.hpp"
#include "support/watchdog.hpp"
#include "store/interval_store.hpp"

namespace pint::pintd {

// The run-status/result types were born here and are now the repo-wide
// detector contract; the aliases keep existing pintd:: spellings compiling.
using RunStatus = detect::RunStatus;
using RunResult = detect::RunResult;

class PintDetector final : public detect::Detector,
                           public detect::DetectorRunner,
                           public rt::SchedulerHooks {
 public:
  struct Options : detect::CommonOptions {
    /// Workers executing the program (P - 2 here, the paper's P - 3).
    int core_workers = 1;
    /// True: two concurrent history workers (the real PINT). False: phased
    /// one-core execution used for the overhead measurements.
    bool parallel_history = true;
    /// 0 = the two role-workers (writer, two-sided reader).
    /// N > 0 = the §VI extension: N address-sharded history workers, each
    /// owning both stores for its stripes (requires kTreap).
    int history_shards = 0;
    std::size_t queue_capacity = std::size_t(1) << 16;
    /// Sequential one-core mode buffers the whole run in the ring and grows
    /// it on demand; this caps the growth (slots, power of two).  0 =
    /// unbounded.  At the cap the run sheds strands from the history (they
    /// are still freed/accounted) and reports kOutOfMemory instead of
    /// growing until bad_alloc aborts the process.
    std::size_t max_queue_capacity = 0;
    /// Pipeline watchdog deadline: a busy pipeline stage (writer, reader /
    /// shard, collector backoff) silent for this long dumps a progress
    /// snapshot to the error sink and cancels the run (RunStatus::kStalled).
    /// 0 disables the watchdog.
    std::uint32_t watchdog_ms = 10000;
    /// Test-only: record the label of every collected strand so tests can
    /// verify the collection order is DAG-conforming (Lemmas 1-4).
    bool record_collection_order = false;
  };

  explicit PintDetector(const Options& opt);
  ~PintDetector() override;

  /// Executes fn() under race detection. One run per detector instance.
  /// Always returns (modulo unsurvivable dead-ends, which abort through the
  /// shared error sink); the result says whether detection is complete or
  /// the pipeline degraded.  Existing callers may ignore the result.
  RunResult run(std::function<void()> fn) override;

  detect::RaceReporter& reporter() override { return rep_; }
  const detect::Stats& stats() const override { return stats_; }
  reach::Engine& reachability() { return reach_; }
  /// Valid after run() when Options::record_collection_order was set.
  const std::vector<reach::Engine::Label>& collection_order() const {
    return collection_log_;
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
  const char* name() const override { return "PINT"; }

  // --- rt::SchedulerHooks (Algorithm 1 events) ---
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
  bool on_task_retire(rt::Worker& w, rt::TaskFrame& f) override;

 private:
  /// Per-core-worker state: the producer end of its trace list, the
  /// consumer cursor the writer treap worker walks, a strand pool, and
  /// cheap (non-atomic) per-worker counters flushed at run end.
  struct CoreWS {
    std::uint32_t index = 0;
    // producer side (owned by the core worker)
    Trace* cur = nullptr;
    std::uint64_t next_sid = 0;
    std::uint64_t traces = 0;
    // Raw accesses, cursor counters, strands and seal tallies (DESIGN.md
    // §9, §13), folded into Stats at run end.
    detect::CoreTally tally;
    // Pushes since the last check of the writer's parked count (pipelined
    // mode only; DESIGN.md §6.6).
    std::uint32_t wake_tick = 0;
    // consumer side (owned by the writer treap worker)
    Trace* ccur = nullptr;
    // The owner takes; a strand goes back to the pool of the worker that
    // took it last, once the history workers are done with it.
    Pool<detect::Strand> strands{"strand pool"};
  };

  /// One queue consumer's monitored state: a heartbeat for the watchdog
  /// plus the processing cursor, published for the progress snapshot.
  struct ConsumerLane {
    char name[16] = {0};
    Heartbeat hb;
    std::atomic<std::uint64_t> cursor{0};
  };

  detect::Strand* alloc_strand(CoreWS& ws);
  void recycle_strand(detect::Strand* s);
  Trace* alloc_trace();
  TraceChunk* alloc_chunk();
  void recycle_trace(Trace* t);
  void recycle_chunk(TraceChunk* c);
  void trace_push(CoreWS& ws, detect::Strand* s);
  void start_new_trace(CoreWS& ws);
  /// Detaches the calling thread's AccessCursor from `s`, then seals it.
  /// Returns the lockset s ended under (what a continuation inherits).
  detect::lockset_t seal_strand(CoreWS& ws, detect::Strand* s);
  /// One core worker never steals or passes a non-trivial sync, so the run
  /// is one trace in execution order: freed heap blocks and retired fibers
  /// are released at strand end instead of by the writer (DESIGN.md §6.2).
  bool one_trace() const { return opt_.core_workers == 1; }

  // graceful degradation (allocation-failure paths)
  void note_oom(const char* what);
  /// pool.take(), else take_after_oom().
  template <class T>
  T* take(Pool<T>& pool, Pool<T>& reserve);
  /// After a failed pool.take(): the shared reserve, else a bounded wait
  /// for the pipeline to recycle into `pool`.
  template <class T>
  T* take_after_oom(Pool<T>& pool, Pool<T>& reserve);

  // access-history component
  void writer_loop();
  /// Consumer lane k (the reader, or shard k): drains the queue through
  /// history lane k + 1.
  void consume_loop(int k);
  /// Collects ready strands from one worker's traces (bounded batch).
  /// Returns true if progress was made; sets *drained when nothing can ever
  /// come from this worker again.
  bool collect_from(CoreWS& ws, bool* drained);
  void collect(detect::Strand* s);
  void process_writer(detect::Strand* s);
  void finish_history_sequential();
  /// Wakes every parked lane (not batched): OOM waits, watchdog cancel.
  void wake_lanes();

  // run orchestration / robustness
  /// Spawns the history threads behind a closed gate; on failure joins
  /// them back, describes why in *why and returns false.
  bool spawn_history_threads(std::thread* writer,
                             std::vector<std::thread>* history,
                             std::string* why);
  void dump_progress(const char* stalled);

  Options opt_;
  reach::Engine reach_;
  detect::RaceReporter rep_;
  detect::Stats stats_;
  AhQueue queue_;
  detect::HistoryDriver<store::ReaderPair> history_;

  std::vector<std::unique_ptr<CoreWS>> ws_;
  rt::Scheduler* sched_ = nullptr;
  bool used_ = false;

  std::atomic<bool> core_done_{false};
  std::atomic<bool> collecting_done_{false};
  // Writer-owned; atomic so the watchdog snapshot can read it.
  std::atomic<std::uint64_t> pushed_{0};
  // Lane parking (DESIGN.md §6.6): core workers wake the writer, the writer
  // wakes the reader or the shards.  publish_tick_ is writer-owned: queue
  // publishes since the last check of the consumers' parked count.
  WakeWord writer_wake_;
  WakeWord lane_wake_;
  std::uint32_t publish_tick_ = 0;

  // --- robustness state ---
  /// Effective history mode for this run: starts as !opt_.parallel_history
  /// and flips to true if history-thread spawn fails (graceful fallback).
  bool seq_history_ = false;
  /// Set by the watchdog's on-stall action (or an unsurvivable allocation
  /// wait): pipeline loops wind down promptly instead of spinning forever.
  std::atomic<bool> cancel_{false};
  /// An allocation failure was survived; run() reports kOutOfMemory.
  std::atomic<bool> oom_{false};
  std::atomic<std::uint64_t> dropped_strands_{0};
  /// Start gate for history threads: 0 = hold, 1 = go, 2 = abort (spawn
  /// rollback).  Threads touch no shared pipeline structure (queue producer
  /// pin, consumer registration) until released, so a partial spawn can be
  /// rolled back and rerun sequentially.
  std::atomic<int> gate_{0};
  /// Monitored heartbeats: writer progress, collector backoff liveness,
  /// one lane per queue consumer (the reader or N shards).
  Heartbeat hb_writer_;
  Heartbeat hb_backoff_;
  std::vector<std::unique_ptr<ConsumerLane>> lanes_;
  // Trace and chunk pools (core workers take, the writer gives back), and
  // the emergency reserves: carved out at construction, shared by every
  // core worker, and tapped only after a real or injected allocation
  // failure (then the pipeline drain takes over).
  Pool<Trace> traces_{"trace pool"};
  Pool<TraceChunk> chunks_{"chunk pool"};
  Pool<detect::Strand> strand_reserve_{"strand reserve"};
  Pool<Trace> trace_reserve_{"trace reserve"};
  Pool<TraceChunk> chunk_reserve_{"chunk reserve"};

  std::vector<reach::Engine::Label> collection_log_;  // writer-thread only
};

}  // namespace pint::pintd
