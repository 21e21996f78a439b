#include "pint/pint_detector.hpp"

#include <cstdio>
#include <cstdlib>
#include <system_error>
#include <thread>

#include "detect/instrument.hpp"
#include "support/error_sink.hpp"
#include "support/failpoint.hpp"
#include "support/telemetry.hpp"
#include "support/timer.hpp"

namespace pint::pintd {

using detect::Strand;

namespace {
// How long an allocation-failure wait gives the pipeline to recycle
// an object before declaring the run unsurvivable (clean abort through the
// error sink rather than a silent hang).
constexpr std::uint64_t kAllocWaitNs = 10ull * 1000 * 1000 * 1000;

// Consumer-lane batch size: strands processed per head snapshot before the
// deferred RECYCLE decrements, cursor publication, and heartbeat run
// (DESIGN.md §10).  Small enough that the watchdog still sees beats from a
// merely-slow lane, big enough to amortize the per-strand acq_rel RMW and
// the two heartbeat stores.
constexpr std::uint64_t kConsumeBatch = 32;

// Software prefetch of the next strand's record chunks while the current
// one is processed: the strand header plus the interval arrays its history
// ops will walk.  Advisory only - correctness never depends on it; the
// strand was published before the head store the caller snapshotted.
inline void prefetch_strand_records(const Strand* s) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(static_cast<const void*>(s), 0, 3);
  const auto& reads = s->first.reads.items();
  if (!reads.empty()) __builtin_prefetch(reads.data(), 0, 2);
  const auto& writes = s->first.writes.items();
  if (!writes.empty()) __builtin_prefetch(writes.data(), 0, 2);
#else
  (void)s;
#endif
}

// Emergency-reserve sizes (per detector), carved out at construction while
// memory is still available.  Sized for the transient burst between an
// allocation failure and the pipeline drain catching up: a spawn allocates
// up to 3 strands, so 32 strands ≈ 10 spawns of cushion.
constexpr std::size_t kReserveStrands = 32;
constexpr std::size_t kReserveChunks = 8;
constexpr std::size_t kReserveTraces = 4;
}  // namespace

PintDetector::PintDetector(const Options& opt)
    : opt_(opt),
      queue_(opt.queue_capacity),
      history_(opt.history_shards, detect::Schedule::kPipelined, reach_, rep_,
               stats_) {
  rep_.set_verbose(opt_.verbose_races);
  for (int i = 0; i < opt_.core_workers; ++i) {
    auto ws = std::make_unique<CoreWS>();
    ws->index = std::uint32_t(i);
    ws_.push_back(std::move(ws));
  }
  seq_history_ = !opt_.parallel_history;

  // One monitored lane per queue consumer (the reader, or N shards).
  for (int i = 0; i + 1 < int(history_.lanes()); ++i) {
    auto lane = std::make_unique<ConsumerLane>();
    if (opt_.history_shards == 0) {
      std::snprintf(lane->name, sizeof(lane->name), "reader");
    } else {
      std::snprintf(lane->name, sizeof(lane->name), "shard%d", i);
    }
    // Idle until the consumer loop starts (the core phase may run long
    // before any history work exists).
    lane->hb.set_idle(true);
    lanes_.push_back(std::move(lane));
  }
  hb_writer_.set_idle(true);
  hb_backoff_.set_idle(true);

  // Emergency reserves: carved out now so an allocation failure mid-run has
  // a cushion while the pipeline drain catches up.
  strand_reserve_.fill(kReserveStrands);
  chunk_reserve_.fill(kReserveChunks);
  trace_reserve_.fill(kReserveTraces);
}

// Every strand, trace and chunk is owned by one of the pools, so
// destruction frees them all: nothing outlives the detector.
PintDetector::~PintDetector() = default;

// ---------------------------------------------------------------------------
// Pools
// ---------------------------------------------------------------------------

template <class T>
T* PintDetector::take(Pool<T>& pool, Pool<T>& reserve) {
  T* t = pool.take();
  return PINT_LIKELY(t != nullptr) ? t : take_after_oom(pool, reserve);
}

Strand* PintDetector::alloc_strand(CoreWS& ws) {
  Strand* s = take(ws.strands, strand_reserve_);
  const std::uint64_t sid =
      (std::uint64_t(ws.index + 1) << 40) | ++ws.next_sid;
  s->reset(sid);
  s->owner_worker = ws.index;
  ws.tally.strands++;
  return s;
}

void PintDetector::recycle_strand(Strand* s) {
  ws_[s->owner_worker]->strands.give(s);
}

Trace* PintDetector::alloc_trace() { return take(traces_, trace_reserve_); }

TraceChunk* PintDetector::alloc_chunk() {
  TraceChunk* c = take(chunks_, chunk_reserve_);
  c->reset();
  return c;
}

void PintDetector::recycle_trace(Trace* t) { traces_.give(t); }

void PintDetector::recycle_chunk(TraceChunk* c) { chunks_.give(c); }

// ---------------------------------------------------------------------------
// Graceful degradation: the allocation-failure wait
// ---------------------------------------------------------------------------

void PintDetector::note_oom(const char* what) {
  if (!oom_.exchange(true, std::memory_order_acq_rel)) {
    error_headerf("allocation failure (%s): degrading - tapping the "
                  "emergency reserve / draining the pipeline; the run will "
                  "report out-of-memory\n",
                  what);
  }
  stats_.oom_events.fetch_add(1, std::memory_order_relaxed);
}

template <class T>
PINT_NOINLINE T* PintDetector::take_after_oom(Pool<T>& pool,
                                              Pool<T>& reserve) {
  note_oom(pool.name());
  if (T* t = reserve.reuse()) return t;
  // Reserve exhausted: block on the pipeline drain - the writer recycles
  // into `pool` as consumers finish with its objects.  Sequential mode has
  // no concurrent drain, and a cancelled pipeline will never refill the
  // pool: both are unsurvivable dead-ends, reported cleanly through the
  // error sink instead of hanging.  Each pause wakes the lanes: a lane
  // parked short of a wake batch has nothing else coming to wake it while
  // this worker waits.
  const std::uint64_t give_up_at = now_ns() + kAllocWaitNs;
  Backoff bo;
  for (;;) {
    if (T* t = pool.reuse()) return t;
    if (seq_history_) {
      fatal_errorf("%s allocation failed in sequential-history mode "
                   "(nothing recycles until the history phases run; cannot "
                   "degrade further)\n",
                   pool.name());
    }
    if (cancel_.load(std::memory_order_relaxed) || now_ns() > give_up_at) {
      fatal_errorf("%s exhausted and the pipeline drain made no "
                   "progress; giving up cleanly\n",
                   pool.name());
    }
    wake_lanes();
    bo.pause();
  }
}

// ---------------------------------------------------------------------------
// Core-component helpers
// ---------------------------------------------------------------------------

void PintDetector::trace_push(CoreWS& ws, Strand* s) {
  if (ws.cur->push_needs_chunk()) ws.cur->supply_chunk(alloc_chunk());
  ws.cur->push(s);
  // A parked writer wakes to a batch (DESIGN.md §6.6): one fence and one
  // load of its parked count every kWakeBatch pushes.
  if (!seq_history_ && ++ws.wake_tick == kWakeBatch) {
    ws.wake_tick = 0;
    writer_wake_.wake_if_parked();
  }
}

void PintDetector::wake_lanes() {
  writer_wake_.wake();
  lane_wake_.wake();
}

void PintDetector::start_new_trace(CoreWS& ws) {
  Trace* t = alloc_trace();
  t->init(alloc_chunk());
  Trace* old = ws.cur;
  old->mark_finished();
  old->set_next_trace(t);  // after mark_finished: consumer sees both in order
  ws.cur = t;
  ws.traces++;
  // Not batched: a finished trace may be what a parked writer waits for.
  if (!seq_history_) writer_wake_.wake_if_parked();
}

detect::lockset_t PintDetector::seal_strand(CoreWS& ws, Strand* s) {
  PINT_TCOUNT("core.seal");
  // Pending cursor intervals land in s's sub-records, and its current
  // sub-record becomes the cursor's last lock lane, before held() is read
  // and before the seal reorders the sub-records.
  ws.tally.cursor_flush(*s);
  const detect::lockset_t held = s->held();
  detect::seal_strand(*s, opt_.coalesce, ws.tally.seal);
  if (one_trace()) {
    // The strand's frees happen now, not at the writer: any reuse of the
    // block is by a later strand of the one trace, which every lane
    // processes after this strand's erase of [lo, hi] (paper §III-F).
    for (detect::HeapFree& hf : s->frees) {
      std::free(hf.base);
      hf.base = nullptr;
    }
  }
  return held;
}

// ---------------------------------------------------------------------------
// detect::Detector (memory events, on core workers)
// ---------------------------------------------------------------------------

void PintDetector::on_access(rt::Worker& w, rt::TaskFrame& f, detect::addr_t lo,
                             detect::addr_t hi, bool is_write) {
  static_cast<CoreWS*>(w.det_worker)
      ->tally.access(static_cast<Strand*>(f.det_strand), lo, hi, is_write,
                     opt_.coalesce);
}

void PintDetector::on_heap_free(rt::Worker&, rt::TaskFrame& f, void* base,
                                detect::addr_t lo, detect::addr_t hi) {
  auto* s = static_cast<Strand*>(f.det_strand);
  PINT_ASSERT(s != nullptr);
  s->frees.push_back({base, lo, hi});
}

void PintDetector::on_lock_acquire(rt::Worker&, rt::TaskFrame& f,
                                   detect::addr_t lock) {
  detect::CoreTally::lock_event(opt_.tuning.lock_edges,
                                static_cast<Strand*>(f.det_strand), lock,
                                true);
}

void PintDetector::on_lock_release(rt::Worker&, rt::TaskFrame& f,
                                   detect::addr_t lock) {
  detect::CoreTally::lock_event(opt_.tuning.lock_edges,
                                static_cast<Strand*>(f.det_strand), lock,
                                false);
}

// ---------------------------------------------------------------------------
// rt::SchedulerHooks (Algorithm 1)
// ---------------------------------------------------------------------------

void PintDetector::on_root_start(rt::Worker& w, rt::TaskFrame& f) {
  auto& ws = *static_cast<CoreWS*>(w.det_worker);
  Strand* r = alloc_strand(ws);
  r->label = reach_.root_label();
  r->tag = f.task_name;
  f.det_strand = r;
  detect::install_cursor(*r, opt_.coalesce);
}

void PintDetector::on_root_end(rt::Worker& w, rt::TaskFrame& f) {
  auto& ws = *static_cast<CoreWS*>(w.det_worker);
  auto* u = static_cast<Strand*>(f.det_strand);
  seal_strand(ws, u);
  u->clears.push_back({f.fiber->stack_lo(), f.fiber->stack_hi() - 1});
  // trace insertion happens at on_task_retire, off this fiber's stack
}

void PintDetector::on_spawn(rt::Worker& w, rt::TaskFrame& parent,
                            rt::SyncBlock& blk, rt::TaskFrame& child) {
  auto& ws = *static_cast<CoreWS*>(w.det_worker);
  auto* u = static_cast<Strand*>(parent.det_strand);
  // Lockset rule (same as every detector): the continuation still holds the
  // parent's locks; the child may run on a worker that does not, so it
  // starts empty (as does the sync node).
  const detect::lockset_t held = seal_strand(ws, u);

  auto* j = static_cast<Strand*>(blk.det_sync);
  if (j == nullptr) {
    // First spawn of the sync block: create the sync node now so its label
    // is in series with the entire block (see reach/depa.hpp).
    j = alloc_strand(ws);
    blk.det_sync = j;
  }
  if (j->tag == nullptr) j->tag = parent.task_name;
  const auto labels = reach_.on_spawn(u->label, &j->label);
  Strand* g = alloc_strand(ws);  // first strand of the spawned function
  g->label = labels.child;
  g->tag = child.task_name;
  Strand* t = alloc_strand(ws);  // continuation strand
  t->label = labels.cont;
  t->tag = parent.task_name;
  t->active().lsid = held;
  t->pred.store(1, std::memory_order_relaxed);  // Algorithm 1, line 8
  u->collect_child = t;  // "u is a spawn node" case of Algorithm 2

  child.det_strand = g;
  parent.det_cont = t;
  trace_push(ws, u);  // Algorithm 1, line 11
  // The spawned child runs next on this worker (continuation stealing).
  detect::install_cursor(*g, opt_.coalesce);
}

void PintDetector::on_spawn_return(rt::Worker& w, rt::TaskFrame& child,
                                   bool continuation_stolen) {
  auto& ws = *static_cast<CoreWS*>(w.det_worker);
  auto* u = static_cast<Strand*>(child.det_strand);  // the return node
  seal_strand(ws, u);
  if (continuation_stolen) {
    // Algorithm 1, lines 15-17: this return node becomes a predecessor of
    // the parent block's (non-trivial) sync node.
    auto* j = static_cast<Strand*>(child.parent_scope->det_sync);
    PINT_ASSERT(j != nullptr);
    u->collect_child = j;
    j->pred.fetch_add(1, std::memory_order_acq_rel);
  }
  // The spawned function's stack dies with it: clear it from the access
  // history when this strand is processed (paper §III-F), and hold the
  // fiber back until then (set at on_task_retire).
  u->clears.push_back({child.fiber->stack_lo(), child.fiber->stack_hi() - 1});
}

void PintDetector::on_continuation(rt::Worker& w, rt::TaskFrame& parent,
                                   bool stolen) {
  auto* t = static_cast<Strand*>(parent.det_cont);
  PINT_ASSERT(t != nullptr);
  parent.det_cont = nullptr;
  parent.det_strand = t;
  if (stolen) {
    // Algorithm 1, lines 22-24: a stolen continuation starts a new trace on
    // the thief.
    auto& ws = *static_cast<CoreWS*>(w.det_worker);
    start_new_trace(ws);
  }
  // The continuation strand runs next on this worker - on the thief after a
  // steal, on the original worker otherwise (its child-cursor was flushed
  // at on_spawn_return).
  detect::install_cursor(*t, opt_.coalesce);
}

void PintDetector::on_sync(rt::Worker& w, rt::TaskFrame& f, rt::SyncBlock& blk,
                           bool trivial) {
  auto* j = static_cast<Strand*>(blk.det_sync);
  if (j == nullptr) return;  // no spawn since the last sync: sync is a no-op
  // (strand u continues - its cursor stays installed)
  auto& ws = *static_cast<CoreWS*>(w.det_worker);
  auto* u = static_cast<Strand*>(f.det_strand);
  seal_strand(ws, u);
  if (!trivial) {
    // Algorithm 1, lines 29-31.
    u->collect_child = j;
    j->pred.fetch_add(1, std::memory_order_acq_rel);
  }
  trace_push(ws, u);  // Algorithm 1, line 32
}

void PintDetector::on_after_sync(rt::Worker& w, rt::TaskFrame& f,
                                 rt::SyncBlock& blk, bool trivial) {
  auto* j = static_cast<Strand*>(blk.det_sync);
  if (j == nullptr) return;
  if (!trivial) {
    // Algorithm 1, lines 35-37: a non-trivial sync starts a new trace on
    // whichever worker passed it.
    auto& ws = *static_cast<CoreWS*>(w.det_worker);
    start_new_trace(ws);
  }
  f.det_strand = j;  // the sync node is the new current strand
  blk.det_sync = nullptr;
  // A non-trivial sync may resume on a different worker thread than the one
  // that parked at on_sync - install on whichever thread runs j next.
  detect::install_cursor(*j, opt_.coalesce);
}

bool PintDetector::on_task_retire(rt::Worker& w, rt::TaskFrame& f) {
  // Runs on the worker loop, after the finished fiber was switched away
  // from - only now is it safe to publish the return-node strand.
  auto& ws = *static_cast<CoreWS*>(w.det_worker);
  auto* u = static_cast<Strand*>(f.det_strand);
  if (one_trace()) {
    // One core worker means one trace in execution order, so any reuse of
    // this fiber's stack is by a strand strictly later in that trace: the
    // clear recorded on this return node is processed first (paper §III-F).
    // The fiber is pooled now; only the strand record is held.
    trace_push(ws, u);
    return false;
  }
  // Several traces are collected in a DAG order, not execution order: a
  // strand that reuses the stack may be collected before this clear, so
  // the fiber waits for the writer to process this strand.
  u->retired_frame = &f;
  trace_push(ws, u);
  return true;
}

// ---------------------------------------------------------------------------
// Access-history component
// ---------------------------------------------------------------------------

void PintDetector::collect(Strand* s) {
  // Empty-strand skip (DESIGN.md §13): a strand with no accesses, clears or
  // frees contributes nothing to any history store, so publishing it only to
  // have every consumer step over it costs a ring slot, an acq_rel fence
  // pair and two stopwatch reads per lane.  The collection bookkeeping that
  // DOES matter still runs - the order log (the strand IS collected, in
  // order), the successor's pred decrement, and the retired-fiber release
  // (the writer released it at this same point in the collection order
  // before; an empty strand carries no clears whose ordering could matter).
  if (!s->has_work()) {
    if (opt_.record_collection_order) collection_log_.push_back(s->label);
    if (s->collect_child != nullptr) {
      s->collect_child->pred.fetch_sub(1, std::memory_order_acq_rel);
    }
    if (s->retired_frame != nullptr) {
      sched_->release_frame(s->retired_frame);
      s->retired_frame = nullptr;
    }
    stats_.empty_strand_skips.fetch_add(1, std::memory_order_relaxed);
    recycle_strand(s);
    return;
  }
  // Covers the queue push (including any backoff on a full ring) plus the
  // nested writer.strand span, so queue pressure is visible as the gap
  // between the two on the writer track.
  PINT_TSPAN("collect.strand");
  const std::int32_t nconsumers =
      opt_.history_shards == 0 ? 2 : std::int32_t(opt_.history_shards);
  s->consumers.store(nconsumers, std::memory_order_release);
  bool published = true;
  Backoff bo;
  for (;;) {
    // "ahqueue.push.full" simulates queue-full pressure: a fired hit makes
    // this attempt behave as if the ring had no room.
    const bool forced_full = PINT_FAILPOINT("ahqueue.push.full");
    if (PINT_LIKELY(!forced_full) && queue_.try_push(s)) break;
    stats_.stalled_pushes.fetch_add(1, std::memory_order_relaxed);
    PINT_TCOUNT("queue.full");
    if (seq_history_) {
      // Sequential mode buffers the entire run before the reader phases, so
      // the ring grows (no consumers are live yet) - up to the configured
      // cap, past which the strand is shed from the history: its deferred
      // resources are still released below, only its accesses are lost, and
      // the run reports kOutOfMemory.
      if (!queue_.try_grow_unsynchronized(opt_.max_queue_capacity)) {
        note_oom("history ring at max_queue_capacity");
        dropped_strands_.fetch_add(1, std::memory_order_relaxed);
        stats_.dropped_strands.fetch_add(1, std::memory_order_relaxed);
        published = false;
        break;
      }
      continue;
    }
    queue_.reclaim([this](Strand* d) { recycle_strand(d); });
    // The backoff path is alive-but-stalled: it beats its own heartbeat
    // (so the watchdog blames the stage that stopped draining, not the
    // waiting writer) and honors cancellation so a dead consumer cannot
    // wedge collection forever.
    hb_backoff_.set_idle(false);
    hb_backoff_.beat();
    // A consumer parked short of a wake batch may hold the slots this push
    // waits for (a ring smaller than kWakeBatch fills before any batched
    // wake), so every pause wakes the consumers.
    lane_wake_.wake_if_parked();
    stats_.backoff_pauses.fetch_add(1, std::memory_order_relaxed);
    PINT_TCOUNT("collect.backoff");
    if (PINT_UNLIKELY(cancel_.load(std::memory_order_relaxed))) {
      dropped_strands_.fetch_add(1, std::memory_order_relaxed);
      stats_.dropped_strands.fetch_add(1, std::memory_order_relaxed);
      published = false;
      break;
    }
    bo.pause();
  }
  // The backoff heartbeat is busy only while the loop above spins on a full
  // queue; every exit (push succeeded, strand shed, cancelled) returns it to
  // idle so a past transient stall cannot trip the watchdog later.
  hb_backoff_.set_idle(true);
  if (PINT_LIKELY(published)) {
    pushed_.fetch_add(1, std::memory_order_relaxed);
    if (opt_.record_collection_order) collection_log_.push_back(s->label);
    // Batched wake of parked consumers, as trace_push does for the writer.
    if (!seq_history_ && ++publish_tick_ == kWakeBatch) {
      publish_tick_ = 0;
      lane_wake_.wake_if_parked();
    }
  }
  // Algorithm 2, lines 42-44.  Runs even for shed strands: successors must
  // still become collectable.
  if (s->collect_child != nullptr) {
    s->collect_child->pred.fetch_sub(1, std::memory_order_acq_rel);
  }
  process_writer(s);
  if (opt_.history_shards == 0 && published) {
    s->consumers.fetch_sub(1, std::memory_order_acq_rel);
  }
}

void PintDetector::process_writer(Strand* s) {
  // The writer lane's roles (none when sharded: the shards own both
  // stores), then the deferred resources, inside its watch and span.
  history_.strand(history_.lane(0), *s, [&] {
    // Deferred frees become real here: any later reuse of this memory is
    // by a strand collected after s, so each store erases the range before
    // seeing the new owner's accesses (paper §III-F).  A one-trace run
    // freed them at seal and left null bases.
    for (const detect::HeapFree& hf : s->frees) std::free(hf.base);
    if (s->retired_frame != nullptr) {
      // Same argument for the fiber stack: reuse is only possible for
      // strands that land later in the access-history order.
      sched_->release_frame(s->retired_frame);
      s->retired_frame = nullptr;
    }
  });
}

bool PintDetector::collect_from(CoreWS& ws, bool* drained) {
  constexpr int kBatch = 64;
  bool progress = false;
  *drained = false;
  for (int i = 0; i < kBatch; ++i) {
    Trace* t = ws.ccur;
    Strand* s = t->peek();
    if (TraceChunk* dc = t->take_drained_chunk()) recycle_chunk(dc);
    if (s == nullptr) {
      if (t->drained()) {
        Trace* nt = t->next_trace();
        if (nt != nullptr) {
          recycle_chunk(t->last_chunk_for_recycle());
          recycle_trace(t);
          ws.ccur = nt;
          progress = true;
          continue;
        }
        *drained = true;
      }
      return progress;
    }
    if (!t->first_collected()) {
      // Collection Rule 1: the first strand of a trace is collectable only
      // once all its immediate predecessors were collected.
      if (s->pred.load(std::memory_order_acquire) != 0) return progress;
    }
    t->pop();
    t->set_first_collected();
    collect(s);
    progress = true;
  }
  return progress;
}

void PintDetector::writer_loop() {
  // Runs on the dedicated writer thread in parallel-history mode and on the
  // calling thread in the phased one-core mode; either way this is the
  // "writer" track from here on.
  telem::set_thread_role("writer");
  auto& lane = history_.lane(0);
  LaneIdle idle(writer_wake_);
  for (;;) {
    if (PINT_UNLIKELY(cancel_.load(std::memory_order_relaxed))) break;
    const bool done_before_scan = core_done_.load(std::memory_order_acquire);
    // Batch watch: one clock read per scan; only a scan that collected
    // something adds its time (an empty scan is idle, not busy).
    history_.begin(lane, detect::Watch::kBatch);
    bool progress = false;
    bool all_drained = true;
    for (auto& ws : ws_) {
      bool drained = false;
      progress |= collect_from(*ws, &drained);
      all_drained &= drained;
    }
    // Reclaim once per scan - batch granularity matching the consumers'
    // batched cursor publication (each scan collects up to kBatch strands
    // per worker, so both ends of the ring amortize their atomics).
    queue_.reclaim([this](Strand* d) { recycle_strand(d); });
    if (progress) history_.end(lane, detect::Watch::kBatch);
    if (done_before_scan && all_drained) break;
    if (progress) {
      idle.busy();
      hb_writer_.set_idle(false);
      hb_writer_.beat();
      continue;
    }
    // Nothing collectable right now: the core workers haven't produced
    // (or a first-strand pred gate is closed).  A legitimate wait, not a
    // stall - the watchdog must not blame the writer for a slow core.
    hb_writer_.set_idle(true);
    if (done_before_scan) {
      // Nothing will wake this thread once the core is done, so it never
      // parks then (an empty scan after the core ended is transient).
      idle.busy();
      relax_round(kRelaxRounds - 1);
    } else {
      // Sleeps until a core worker's wake batch or a finish event once the
      // spin is over and a scan after prepare_park() also came up empty.
      idle.idle();
    }
  }
  // Set even on cancellation so consumer loops drain what was published
  // and exit instead of waiting on a writer that is gone.
  collecting_done_.store(true, std::memory_order_release);
  lane_wake_.wake();
}

void PintDetector::consume_loop(int k) {
  ConsumerLane& lane = *lanes_[std::size_t(k)];
  auto& hl = history_.lane(std::size_t(k) + 1);
  telem::set_thread_role(lane.name);
  queue_.register_consumer();
  std::uint64_t cursor = 0;
  std::uint64_t batches = 0, drained = 0, prefetches = 0;
  LaneIdle idle(lane_wake_);
  for (;;) {
    const std::uint64_t h = queue_.head();
    if (cursor == h) {
      if (collecting_done_.load(std::memory_order_acquire)) {
        if (cursor == queue_.head()) break;
        continue;  // the last publishes landed after h was read
      }
      // Parks (after the spin and a re-check) until the writer's wake
      // batch, a full-ring backoff, or collection ending.
      lane.hb.set_idle(true);
      idle.idle();
      continue;
    }
    idle.busy();
    lane.hb.set_idle(false);
    history_.begin(hl, detect::Watch::kBatch);
    while (cursor < h) {
      // Batched drain (DESIGN.md §10): process up to kConsumeBatch strands
      // per head snapshot, prefetching the next strand's records behind the
      // current one, then retire the whole batch - the RECYCLE decrement,
      // cursor publication, and heartbeat move from per-strand to per-batch.
      const std::uint64_t end =
          h - cursor > kConsumeBatch ? cursor + kConsumeBatch : h;
      for (std::uint64_t i = cursor; i < end; ++i) {
        // Injection point for consumer stalls: with a delay-mode fail point
        // configured, this sleeps mid-processing while the lane is BUSY,
        // which is exactly the shape the watchdog exists to catch.
        (void)PINT_FAILPOINT("reader.stall");
        if (i + 1 < end) {
          prefetch_strand_records(queue_.at(i + 1));
          ++prefetches;
        }
        history_.strand(hl, *queue_.at(i));
      }
      // Deferred RECYCLE handoffs: each strand's last use above is still
      // sequenced before its own fetch_sub, so the release/acquire pairing
      // with AhQueue::reclaim() is unchanged - recycling is merely delayed,
      // and never by more than kConsumeBatch strands.
      for (std::uint64_t i = cursor; i < end; ++i) {
        queue_.at(i)->consumers.fetch_sub(1, std::memory_order_acq_rel);
      }
      drained += end - cursor;
      ++batches;
      cursor = end;
      lane.cursor.store(cursor, std::memory_order_relaxed);
      lane.hb.beat();
    }
    history_.end(hl, detect::Watch::kBatch);
  }
  lane.hb.set_idle(true);
  queue_.unregister_consumer();
  // Local tallies folded once per lane at exit; run() joins this thread
  // before snapshotting (Stats quiescence contract).
  stats_.batch_drains.fetch_add(batches, std::memory_order_relaxed);
  stats_.batch_strands.fetch_add(drained, std::memory_order_relaxed);
  stats_.prefetch_issues.fetch_add(prefetches, std::memory_order_relaxed);
}

void PintDetector::finish_history_sequential() {
  // Each lane is one uninterrupted phase on this thread: the collection
  // phase (which applies the writer role unless sharded), then the reader
  // or each shard over the same global order.  The driver picks what the
  // lanes' watches bracket; the writer phase's covers collection too -
  // which is the writer worker's job in the paper's breakdown anyway.
  history_.set_schedule(detect::Schedule::kPhased);
  for (std::size_t i = 0; i < history_.lanes(); ++i) {
    auto& lane = history_.lane(i);
    history_.begin(lane, detect::Watch::kPhase);
    if (i == 0) {
      writer_loop();
    } else {
      consume_loop(int(i) - 1);
    }
    history_.end(lane, detect::Watch::kPhase);
  }
}

// ---------------------------------------------------------------------------
// Run orchestration
// ---------------------------------------------------------------------------

namespace {
/// Blocks a gated history thread until run() releases (go) or rolls back
/// (abort) the spawn batch.  Returns true to proceed into the loop.
bool wait_gate(const std::atomic<int>& gate) {
  Backoff bo;
  for (;;) {
    const int g = gate.load(std::memory_order_acquire);
    if (g != 0) return g == 1;
    bo.pause();
  }
}
}  // namespace

bool PintDetector::spawn_history_threads(std::thread* writer,
                                         std::vector<std::thread>* history,
                                         std::string* why) {
  // Threads hold at the gate until run() opens it: none of them touches
  // the queue (producer pin, consumer registration) or the trace cursors
  // before release, so a partial batch can be joined and the run rolled
  // over to sequential-history mode with no shared state poisoned.
  gate_.store(0, std::memory_order_release);
  try {
    history->reserve(lanes_.size());  // one thread per consumer lane
    if (PINT_FAILPOINT("history.spawn")) {
      throw std::system_error(
          std::make_error_code(std::errc::resource_unavailable_try_again),
          "injected history.spawn failure");
    }
    *writer = std::thread([this] {
      if (wait_gate(gate_)) writer_loop();
    });
    for (int k = 0; k < int(lanes_.size()); ++k) {
      if (PINT_FAILPOINT("history.spawn")) {
        throw std::system_error(
            std::make_error_code(std::errc::resource_unavailable_try_again),
            "injected history.spawn failure");
      }
      history->emplace_back([this, k] {
        if (wait_gate(gate_)) consume_loop(k);
      });
    }
  } catch (const std::exception& e) {
    // std::system_error from std::thread, or bad_alloc growing *history -
    // both take the same rollback to sequential-history mode.
    // Roll back: release every thread that did spawn straight to exit.
    gate_.store(2, std::memory_order_release);
    if (writer->joinable()) writer->join();
    for (auto& t : *history) {
      if (t.joinable()) t.join();
    }
    history->clear();
    *why = e.what();
    return false;
  }
  return true;
}

void PintDetector::dump_progress(const char* stalled) {
  // Runs on the watchdog monitor thread while the pipeline may still be
  // live: reads only atomics (queue cursors, heartbeats, stats counters).
  std::FILE* f = error_stream();
  error_headerf(
      "WATCHDOG: pipeline stage '%s' busy but silent for %u ms - progress "
      "snapshot follows; cancelling the history pipeline\n",
      stalled, opt_.watchdog_ms);
  const std::uint64_t head = queue_.head();
  const std::uint64_t reclaimed = queue_.reclaimed();
  std::fprintf(f, "  queue: head=%llu reclaimed=%llu in-flight=%llu capacity=%zu\n",
               (unsigned long long)head, (unsigned long long)reclaimed,
               (unsigned long long)(head - reclaimed), queue_.capacity());
  std::fprintf(
      f, "  writer: pushed=%llu beats=%llu idle=%d\n",
      (unsigned long long)pushed_.load(std::memory_order_relaxed),
      (unsigned long long)hb_writer_.beats(), int(hb_writer_.idle()));
  std::fprintf(
      f,
      "  collector-backoff: stalled_pushes=%llu backoff_pauses=%llu "
      "dropped_strands=%llu beats=%llu\n",
      (unsigned long long)stats_.stalled_pushes.load(std::memory_order_relaxed),
      (unsigned long long)stats_.backoff_pauses.load(std::memory_order_relaxed),
      (unsigned long long)dropped_strands_.load(std::memory_order_relaxed),
      (unsigned long long)hb_backoff_.beats());
  for (const auto& lane : lanes_) {
    std::fprintf(
        f, "  consumer %-8s cursor=%llu beats=%llu idle=%d\n", lane->name,
        (unsigned long long)lane->cursor.load(std::memory_order_relaxed),
        (unsigned long long)lane->hb.beats(), int(lane->hb.idle()));
  }
  std::fflush(f);
}

RunResult PintDetector::run(std::function<void()> fn) {
  PINT_CHECK_MSG(!used_, "PintDetector instances are single-use");
  used_ = true;
  // Tuning snapshot -> process globals (the access fast path); the
  // per-detector knobs are read from opt_.tuning directly.
  opt_.tuning.apply_globals();
  RunResult result;

  rt::Scheduler::Options so;
  so.workers = opt_.core_workers;
  so.hooks = this;
  so.stack_bytes = opt_.stack_bytes;
  so.seed = opt_.seed;
  rt::Scheduler sched(so);
  sched_ = &sched;

  // Nothing between the spawn and the gate's release below can throw, so
  // no exception can leave the spawned threads unjoined.
  std::thread writer;
  std::vector<std::thread> history;
  // Pipelined lanes' watch granularity (phased mode re-picks it in
  // finish_history_sequential); the spawn gate publishes it.
  history_.set_schedule(detect::Schedule::kPipelined);
  std::string spawn_error;
  if (!seq_history_ &&
      !spawn_history_threads(&writer, &history, &spawn_error)) {
    // Graceful fallback: the paper's phased one-core history mode needs no
    // extra threads.  Detection stays exact; only the asynchrony is lost.
    seq_history_ = true;
    result.degraded_sequential_history = true;
  }
  set_run_context("seed=%llu cw=%d shards=%d mode=%s",
                  (unsigned long long)opt_.seed, opt_.core_workers,
                  opt_.history_shards,
                  result.degraded_sequential_history ? "seq-fallback"
                  : seq_history_                     ? "seq"
                                                     : "par");
  if (result.degraded_sequential_history) {
    error_headerf("history thread spawn failed (%s): falling back to the "
                  "sequential one-core history mode\n",
                  spawn_error.c_str());
  }

  for (int i = 0; i < opt_.core_workers; ++i) {
    sched.worker(i).det_worker = ws_[i].get();
    Trace* t = alloc_trace();
    t->init(alloc_chunk());
    ws_[i]->cur = t;
    ws_[i]->ccur = t;
    ws_[i]->traces = 1;
  }
  // The history threads read the trace cursors set up above.
  if (!seq_history_) gate_.store(1, std::memory_order_release);

  detect::set_active_detector(this);
  // Deep-backoff attribution: the counter is process-wide, so record the
  // run's share as a delta (concurrent detector runs would blur it - fine
  // for a monitoring counter).
  const std::uint64_t deep_backoffs_at_start = Backoff::deep_entries();

  // Background telemetry sampler: turns the monitoring-safe atomics (the
  // same ones dump_progress reads) into a queue-pressure time series.  A
  // no-op unless telemetry is armed.
  telem::Sampler sampler;
  sampler.start([this](telem::Sampler::Sink& sink) {
    const std::uint64_t head = queue_.head();
    const std::uint64_t reclaimed = queue_.reclaimed();
    sink.gauge("queue.depth", head - reclaimed);
    sink.gauge("queue.capacity", queue_.capacity());
    sink.gauge("queue.pushed", pushed_.load(std::memory_order_relaxed));
    for (const auto& lane : lanes_) {
      char g[32];
      std::snprintf(g, sizeof(g), "lag.%s", lane->name);
      const std::uint64_t cur = lane->cursor.load(std::memory_order_relaxed);
      sink.gauge(g, head >= cur ? head - cur : 0);
      std::snprintf(g, sizeof(g), "idle.%s", lane->name);
      sink.gauge(g, lane->hb.idle() ? 1 : 0);
    }
    sink.gauge("idle.writer", hb_writer_.idle() ? 1 : 0);
    sink.gauge("beats.writer", hb_writer_.beats());
    // Objects in use, summed over every pool of a kind (reserve objects
    // recycle into the pools that took them).
    std::int64_t strands = strand_reserve_.in_use();
    for (const auto& ws : ws_) strands += ws->strands.in_use();
    const auto in_use = [](std::int64_t n) {
      return std::uint64_t(std::max<std::int64_t>(0, n));
    };
    sink.gauge("pool.strands", in_use(strands));
    sink.gauge("pool.traces", in_use(traces_.in_use() + trace_reserve_.in_use()));
    sink.gauge("pool.chunks", in_use(chunks_.in_use() + chunk_reserve_.in_use()));
    sink.gauge("dropped.strands",
               dropped_strands_.load(std::memory_order_relaxed));
  });

  Watchdog::Options wo;
  wo.deadline_ms = opt_.watchdog_ms;
  Watchdog wd(wo);
  if (opt_.watchdog_ms != 0) {
    wd.add("writer", &hb_writer_);
    wd.add("collector-backoff", &hb_backoff_);
    for (auto& lane : lanes_) wd.add(lane->name, &lane->hb);
    wd.set_snapshot([this](const char* stalled) { dump_progress(stalled); });
    wd.set_on_stall([this](const char*) {
      stats_.watchdog_trips.fetch_add(1, std::memory_order_relaxed);
      cancel_.store(true, std::memory_order_release);
      wake_lanes();  // a parked lane must see the cancel, not sleep on
    });
    wd.arm();
  }

  // The measured window covers exactly the detection pipeline: thread spawn,
  // sampler and watchdog setup happen above, their teardown below the
  // elapsed read - so total_ns (the overhead-figure numerator) is not
  // padded with monitoring scaffolding.
  Timer total;
  Timer core;
  sched.run([&] { fn(); });
  stats_.core_ns.store(core.elapsed_ns());
  // The strand-end releases (seal_strand, on_task_retire) rely on this.
  PINT_ASSERT(!one_trace() || ws_[0]->traces == 1);
  for (auto& ws : ws_) ws->cur->mark_finished();
  core_done_.store(true, std::memory_order_release);
  if (seq_history_) {
    finish_history_sequential();
  } else {
    writer_wake_.wake();
    writer.join();
    for (auto& t : history) t.join();
  }
  stats_.total_ns.store(total.elapsed_ns());

  wd.disarm();
  sampler.stop();
  history_.fold(stats_);
  stats_.steals.store(sched.total_steals());
  for (auto& ws : ws_) {
    ws->tally.fold(stats_);
    stats_.traces.fetch_add(ws->traces);
  }
  stats_.deep_backoffs.fetch_add(Backoff::deep_entries() -
                                 deep_backoffs_at_start);
  stats_.lane_parks.fetch_add(writer_wake_.parks() + lane_wake_.parks());
  stats_.lane_wakes.fetch_add(writer_wake_.wakes() + lane_wake_.wakes());
  stats_.lane_park_ns.fetch_add(writer_wake_.park_ns() +
                                lane_wake_.park_ns());
  stats_.export_telemetry();

  detect::set_active_detector(nullptr);
  sched_ = nullptr;

  result.watchdog_tripped = wd.tripped();
  result.dropped_strands = dropped_strands_.load(std::memory_order_relaxed);
  if (result.watchdog_tripped) {
    result.status = RunStatus::kStalled;
  } else if (oom_.load(std::memory_order_acquire)) {
    result.status = RunStatus::kOutOfMemory;
  } else {
    result.status = RunStatus::kOk;
  }
  clear_run_context();
  return result;
}

}  // namespace pint::pintd
