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
//    performs deferred heap frees, and releases retired fiber stacks.  The
//    READER worker follows the queue with a private cursor and maintains
//    one two-sided store holding both the left-most and the right-most
//    reader of every segment (the paper's two reader treaps; DESIGN.md §3).
//
// One-core mode (`parallel_history = false`) reproduces the paper's
// single-core PINT measurement: the core component runs to completion first
// and the two history phases run afterwards on the calling thread, which
// makes the Fig. 2 work breakdown directly measurable.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "detect/detector.hpp"
#include "detect/history.hpp"
#include "detect/report.hpp"
#include "detect/run_result.hpp"
#include "detect/stats.hpp"
#include "detect/strand.hpp"
#include "pint/ah_queue.hpp"
#include "pint/sharded_history.hpp"
#include "pint/trace.hpp"
#include "reach/depa.hpp"
#include "runtime/scheduler.hpp"
#include "support/timer.hpp"
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
    std::uint64_t raw_reads = 0, raw_writes = 0;
    std::uint64_t strands = 0, traces = 0;
    // AccessCursor effectiveness (DESIGN.md §9): raw accesses recorded via
    // the thread-local cursor, the subset its inline caches absorbed, and
    // accesses that took the classic virtual-dispatch route.
    std::uint64_t fast_accesses = 0, fast_hits = 0, slow_accesses = 0;
    std::uint64_t cursor_spills = 0;
    // Intervals, lock sub-records, AccessBuffer::add tail-probe outcomes and
    // finalize route tallies (DESIGN.md §13), folded at seal time.
    detect::SealTally seal;
    // consumer side (owned by the writer treap worker)
    Trace* ccur = nullptr;
    // Strand pool: owner pops, writer treap worker returns.  Same
    // vector-pool shape as the trace/chunk pools so all three share the
    // pool_take() idiom (and ownership stays with the unique_ptrs - the
    // Trace doc contract: callers allocate, pools never own ad hoc).
    Spinlock pool_mu;
    std::vector<detect::Strand*> pool;
    std::vector<std::unique_ptr<detect::Strand>> owned;
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
  void seal_strand(CoreWS& ws, detect::Strand* s);
  /// Invalidates the calling thread's AccessCursor, folding its drained
  /// counters into ws.  Must run before seal_strand() of the cursor's
  /// strand (pending cursor intervals land in the strand's AccessBuffers).
  void cursor_flush(CoreWS& ws);
  /// Lockset transition: moves the strand's cursor to the sub-record of
  /// the new held lockset (detect/strand.hpp).
  void on_lock_event(rt::Worker& w, rt::TaskFrame& f, detect::addr_t lock,
                     bool acquire);

  // graceful degradation (allocation-failure paths)
  void note_oom(const char* what);
  detect::Strand* strand_fallback(CoreWS& ws);
  Trace* trace_fallback();
  TraceChunk* chunk_fallback();

  // access-history component
  void writer_loop();
  void reader_loop();
  void shard_loop(int shard);
  /// Collects ready strands from one worker's traces (bounded batch).
  /// Returns true if progress was made; sets *drained when nothing can ever
  /// come from this worker again.
  bool collect_from(CoreWS& ws, bool* drained);
  void collect(detect::Strand* s);
  void process_writer(detect::Strand* s);
  void finish_history_sequential();
  /// Drains one consumer lane's cursor against the queue; shared by
  /// reader_loop and shard_loop.
  template <class ProcessFn>
  void consume_loop(ConsumerLane& lane, ProcessFn&& process);

  // run orchestration / robustness
  bool spawn_history_threads(std::thread* writer,
                             std::vector<std::thread>* history);
  void dump_progress(const char* stalled);

  Options opt_;
  reach::Engine reach_;
  detect::RaceReporter rep_;
  detect::Stats stats_;
  AhQueue queue_;
  store::IntervalStore writer_treap_;
  store::ReaderStore reader_treap_;
  detect::GranuleMap writer_map_;
  detect::ReaderGranuleMap reader_map_;
  std::vector<std::unique_ptr<HistoryShard>> shards_;

  std::vector<std::unique_ptr<CoreWS>> ws_;
  rt::Scheduler* sched_ = nullptr;
  bool used_ = false;

  std::atomic<bool> core_done_{false};
  std::atomic<bool> collecting_done_{false};
  // Writer-owned; atomic so the watchdog snapshot can read it.
  std::atomic<std::uint64_t> pushed_{0};

  // --- robustness state ---
  /// Effective history mode for this run: starts as !opt_.parallel_history
  /// and flips to true if history-thread spawn fails (graceful fallback).
  bool seq_history_ = false;
  /// Phased one-core mode hoists the CPU-clock stopwatches from per-strand
  /// to per-phase (finish_history_sequential): each lane runs as one
  /// uninterrupted phase on the calling thread, so two clock reads bound the
  /// same work that thousands of per-strand reads did - at ~200ns per read
  /// that is a measurable slice of the Fig. 2 overhead.  Written before the
  /// phases start, read on the same thread (seq mode is single-threaded).
  bool phase_watch_ = false;
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
  // Emergency reserves, allocated up-front and tapped only after a real or
  // injected allocation failure (then the pipeline drain takes over).
  Spinlock reserve_mu_;
  std::vector<std::unique_ptr<detect::Strand>> reserve_strands_owned_;
  std::vector<detect::Strand*> reserve_strands_;
  std::vector<std::unique_ptr<TraceChunk>> reserve_chunks_owned_;
  std::vector<TraceChunk*> reserve_chunks_;
  std::vector<std::unique_ptr<Trace>> reserve_traces_owned_;
  std::vector<Trace*> reserve_traces_;

  // trace / chunk pools (core workers allocate, writer recycles)
  Spinlock tp_mu_;
  std::vector<Trace*> trace_pool_;
  std::vector<std::unique_ptr<Trace>> all_traces_;
  Spinlock cp_mu_;
  std::vector<TraceChunk*> chunk_pool_;
  std::vector<std::unique_ptr<TraceChunk>> all_chunks_;
  // Pool-occupancy gauges for the telemetry sampler: the pool vectors and
  // per-worker free lists are lock-protected, so the sampler thread reads
  // these relaxed mirrors instead (allocated-and-in-use object counts).
  std::atomic<std::int64_t> traces_outstanding_{0};
  std::atomic<std::int64_t> chunks_outstanding_{0};
  std::atomic<std::int64_t> strands_outstanding_{0};

  StopwatchAccum writer_watch_, reader_watch_;
  std::vector<reach::Engine::Label> collection_log_;  // writer-thread only
};

}  // namespace pint::pintd
