#include "pint/pint_detector.hpp"

#include <cstdio>
#include <cstdlib>
#include <new>
#include <system_error>
#include <thread>

#include "detect/history.hpp"
#include "detect/instrument.hpp"
#include "support/error_sink.hpp"
#include "support/failpoint.hpp"
#include "support/telemetry.hpp"
#include "support/timer.hpp"

namespace pint::pintd {

using detect::Strand;

namespace {
// How long an allocation-failure fallback waits for the pipeline to recycle
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

// Shared pool-take: reuse from `pool`, or allocate fresh into `owned`.  One
// lock acquisition either way (the old per-pool copies dropped and re-took
// the lock on the miss path).  `on_reuse` reinitialises a recycled object
// and runs under the lock, before the object escapes the pool.  The pool
// recycles within one run only; `owned` frees everything with the detector.
// Returns nullptr when the fresh allocation fails - really (bad_alloc) or
// by injection ("pool.alloc" fires only on the miss path, so `once` mode
// deterministically fails one true allocation).
template <class T, class Reuse>
T* pool_take(Spinlock& mu, std::vector<T*>& pool,
             std::vector<std::unique_ptr<T>>& owned, Reuse&& on_reuse) {
  LockGuard<Spinlock> g(mu);
  if (!pool.empty()) {
    T* t = pool.back();
    pool.pop_back();
    on_reuse(t);
    return t;
  }
  if (PINT_UNLIKELY(PINT_FAILPOINT("pool.alloc"))) return nullptr;
  try {
    auto fresh = std::make_unique<T>();
    T* p = fresh.get();
    owned.push_back(std::move(fresh));
    return p;
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
}  // namespace

PintDetector::PintDetector(const Options& opt)
    : opt_(opt),
      queue_(opt.queue_capacity) {
  rep_.set_verbose(opt_.verbose_races);
  PINT_CHECK_MSG(
      opt_.history_shards == 0 || opt_.history == detect::HistoryKind::kTreap,
      "sharded history supports the treap store only");
  for (int k = 0; k < opt_.history_shards; ++k) {
    shards_.push_back(std::make_unique<HistoryShard>());
  }
  for (int i = 0; i < opt_.core_workers; ++i) {
    auto ws = std::make_unique<CoreWS>();
    ws->index = std::uint32_t(i);
    ws_.push_back(std::move(ws));
  }
  seq_history_ = !opt_.parallel_history;

  // One monitored lane per queue consumer (the reader, or N shards).
  const int nlanes = shards_.empty() ? 1 : int(shards_.size());
  for (int i = 0; i < nlanes; ++i) {
    auto lane = std::make_unique<ConsumerLane>();
    if (shards_.empty()) {
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
  reserve_strands_owned_.reserve(kReserveStrands);
  for (std::size_t i = 0; i < kReserveStrands; ++i) {
    reserve_strands_owned_.push_back(std::make_unique<Strand>());
    reserve_strands_.push_back(reserve_strands_owned_.back().get());
  }
  reserve_chunks_owned_.reserve(kReserveChunks);
  for (std::size_t i = 0; i < kReserveChunks; ++i) {
    reserve_chunks_owned_.push_back(std::make_unique<TraceChunk>());
    reserve_chunks_.push_back(reserve_chunks_owned_.back().get());
  }
  reserve_traces_owned_.reserve(kReserveTraces);
  for (std::size_t i = 0; i < kReserveTraces; ++i) {
    reserve_traces_owned_.push_back(std::make_unique<Trace>());
    reserve_traces_.push_back(reserve_traces_owned_.back().get());
  }
}

// Every pool object, trace and chunk is held by a unique_ptr member, so
// destruction frees them all: nothing outlives the detector.
PintDetector::~PintDetector() = default;

// ---------------------------------------------------------------------------
// Pools
// ---------------------------------------------------------------------------

Strand* PintDetector::alloc_strand(CoreWS& ws) {
  Strand* s = pool_take(ws.pool_mu, ws.pool, ws.owned,
                        [](Strand*) { /* reset(sid) below */ });
  if (PINT_UNLIKELY(s == nullptr)) s = strand_fallback(ws);
  const std::uint64_t sid =
      (std::uint64_t(ws.index + 1) << 40) | ++ws.next_sid;
  s->reset(sid);
  s->owner_worker = ws.index;
  ws.strands++;
  strands_outstanding_.fetch_add(1, std::memory_order_relaxed);
  return s;
}

// ---------------------------------------------------------------------------
// Graceful degradation: allocation-failure fallbacks
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

Strand* PintDetector::strand_fallback(CoreWS& ws) {
  note_oom("strand pool");
  {
    LockGuard<Spinlock> g(reserve_mu_);
    if (!reserve_strands_.empty()) {
      Strand* s = reserve_strands_.back();
      reserve_strands_.pop_back();
      return s;
    }
  }
  // Reserve exhausted: block on the pipeline drain - the writer recycles
  // strands into this worker's free list as consumers finish with them.
  // Sequential mode has no concurrent drain, and a cancelled pipeline will
  // never refill the list: both are unsurvivable dead-ends, reported
  // cleanly through the error sink instead of hanging.  Each pause wakes
  // the lanes: a lane parked short of a wake batch has nothing else coming
  // to wake it while this worker waits.
  const std::uint64_t give_up_at = now_ns() + kAllocWaitNs;
  Backoff bo;
  for (;;) {
    {
      LockGuard<Spinlock> g(ws.pool_mu);
      if (!ws.pool.empty()) {
        Strand* s = ws.pool.back();
        ws.pool.pop_back();
        return s;
      }
    }
    if (seq_history_) {
      fatal_errorf("strand allocation failed in sequential-history mode "
                   "(nothing recycles until the reader phases; cannot "
                   "degrade further)\n");
    }
    if (cancel_.load(std::memory_order_relaxed) || now_ns() > give_up_at) {
      fatal_errorf("strand pool exhausted and the pipeline drain made no "
                   "progress; giving up cleanly\n");
    }
    wake_lanes();
    bo.pause();
  }
}

Trace* PintDetector::trace_fallback() {
  note_oom("trace pool");
  {
    LockGuard<Spinlock> g(reserve_mu_);
    if (!reserve_traces_.empty()) {
      Trace* t = reserve_traces_.back();
      reserve_traces_.pop_back();
      return t;
    }
  }
  const std::uint64_t give_up_at = now_ns() + kAllocWaitNs;
  Backoff bo;
  for (;;) {
    {
      LockGuard<Spinlock> g(tp_mu_);
      if (!trace_pool_.empty()) {
        Trace* t = trace_pool_.back();
        trace_pool_.pop_back();
        return t;
      }
    }
    if (seq_history_) {
      fatal_errorf("trace allocation failed in sequential-history mode; "
                   "cannot degrade further\n");
    }
    if (cancel_.load(std::memory_order_relaxed) || now_ns() > give_up_at) {
      fatal_errorf("trace pool exhausted and the pipeline drain made no "
                   "progress; giving up cleanly\n");
    }
    wake_lanes();
    bo.pause();
  }
}

TraceChunk* PintDetector::chunk_fallback() {
  note_oom("chunk pool");
  {
    LockGuard<Spinlock> g(reserve_mu_);
    if (!reserve_chunks_.empty()) {
      TraceChunk* c = reserve_chunks_.back();
      reserve_chunks_.pop_back();
      return c;  // freshly constructed: already clean
    }
  }
  const std::uint64_t give_up_at = now_ns() + kAllocWaitNs;
  Backoff bo;
  for (;;) {
    {
      LockGuard<Spinlock> g(cp_mu_);
      if (!chunk_pool_.empty()) {
        TraceChunk* c = chunk_pool_.back();
        chunk_pool_.pop_back();
        for (auto& slot : c->slots) {
          slot.store(nullptr, std::memory_order_relaxed);
        }
        c->next.store(nullptr, std::memory_order_relaxed);
        return c;
      }
    }
    if (seq_history_) {
      fatal_errorf("chunk allocation failed in sequential-history mode; "
                   "cannot degrade further\n");
    }
    if (cancel_.load(std::memory_order_relaxed) || now_ns() > give_up_at) {
      fatal_errorf("chunk pool exhausted and the pipeline drain made no "
                   "progress; giving up cleanly\n");
    }
    wake_lanes();
    bo.pause();
  }
}

void PintDetector::recycle_strand(Strand* s) {
  CoreWS& ws = *ws_[s->owner_worker];
  strands_outstanding_.fetch_sub(1, std::memory_order_relaxed);
  LockGuard<Spinlock> g(ws.pool_mu);
  ws.pool.push_back(s);
}

Trace* PintDetector::alloc_trace() {
  Trace* t = pool_take(tp_mu_, trace_pool_, all_traces_,
                       [](Trace*) { /* callers init() before use */ });
  traces_outstanding_.fetch_add(1, std::memory_order_relaxed);
  return PINT_LIKELY(t != nullptr) ? t : trace_fallback();
}

TraceChunk* PintDetector::alloc_chunk() {
  TraceChunk* c =
      pool_take(cp_mu_, chunk_pool_, all_chunks_, [](TraceChunk* ch) {
        for (auto& slot : ch->slots) {
          slot.store(nullptr, std::memory_order_relaxed);
        }
        ch->next.store(nullptr, std::memory_order_relaxed);
      });
  chunks_outstanding_.fetch_add(1, std::memory_order_relaxed);
  return PINT_LIKELY(c != nullptr) ? c : chunk_fallback();
}

void PintDetector::recycle_trace(Trace* t) {
  traces_outstanding_.fetch_sub(1, std::memory_order_relaxed);
  LockGuard<Spinlock> g(tp_mu_);
  trace_pool_.push_back(t);
}

void PintDetector::recycle_chunk(TraceChunk* c) {
  chunks_outstanding_.fetch_sub(1, std::memory_order_relaxed);
  LockGuard<Spinlock> g(cp_mu_);
  chunk_pool_.push_back(c);
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

void PintDetector::seal_strand(CoreWS& ws, Strand* s) {
  PINT_TCOUNT("core.seal");
  detect::seal_strand(*s, opt_.coalesce, ws.seal);
}

void PintDetector::cursor_flush(CoreWS& ws, Strand& s) {
  const detect::CursorFlush fl = detect::detach_cursor(s);
  ws.raw_reads += fl.raw_reads;
  ws.raw_writes += fl.raw_writes;
  ws.fast_accesses += fl.raw_reads + fl.raw_writes;
  ws.fast_hits += fl.hits;
  ws.cursor_spills += fl.spills;
}

// ---------------------------------------------------------------------------
// detect::Detector (memory events, on core workers)
// ---------------------------------------------------------------------------

void PintDetector::on_access(rt::Worker& w, rt::TaskFrame& f, detect::addr_t lo,
                             detect::addr_t hi, bool is_write) {
  // Classic route: taken only when the AccessCursor fast path is disabled.
  auto& ws = *static_cast<CoreWS*>(w.det_worker);
  auto* s = static_cast<Strand*>(f.det_strand);
  PINT_ASSERT(s != nullptr);
  ws.slow_accesses++;
  detect::AccessBuffer& buf =
      is_write ? s->active().writes : s->active().reads;
  (is_write ? ws.raw_writes : ws.raw_reads)++;
  if (opt_.coalesce) {
    buf.add(lo, hi);
  } else {
    buf.add_raw(lo, hi);
  }
}

void PintDetector::on_heap_free(rt::Worker&, rt::TaskFrame& f, void* base,
                                detect::addr_t lo, detect::addr_t hi) {
  auto* s = static_cast<Strand*>(f.det_strand);
  PINT_ASSERT(s != nullptr);
  s->frees.push_back({base, lo, hi});
}

// Lock events reach the detector only when the access cursor cannot switch
// lanes itself (detect::note_lock_event).
void PintDetector::on_lock_acquire(rt::Worker&, rt::TaskFrame& f,
                                   detect::addr_t lock) {
  if (!opt_.tuning.lock_edges) return;
  PINT_ASSERT(f.det_strand != nullptr);
  detect::note_lock_event(*static_cast<Strand*>(f.det_strand), lock, true);
}

void PintDetector::on_lock_release(rt::Worker&, rt::TaskFrame& f,
                                   detect::addr_t lock) {
  if (!opt_.tuning.lock_edges) return;
  PINT_ASSERT(f.det_strand != nullptr);
  detect::note_lock_event(*static_cast<Strand*>(f.det_strand), lock, false);
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
  cursor_flush(ws, *u);
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
  // starts empty (as does the sync node).  Read after the cursor hands back
  // u's last lock lane and before the seal reorders u's sub-records.
  cursor_flush(ws, *u);
  const detect::lockset_t held = u->held();
  seal_strand(ws, u);

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
  cursor_flush(ws, *u);
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
  cursor_flush(ws, *u);
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
  // from - only now is it safe to publish the return-node strand (and with
  // it the fiber, whose stack must not be reused until the writer treap
  // worker processes this strand).
  auto& ws = *static_cast<CoreWS*>(w.det_worker);
  auto* u = static_cast<Strand*>(f.det_strand);
  if (seq_history_) {
    // Phased one-core mode: the whole run is a single trace, so any reuse of
    // this fiber's stack is by a strand strictly later in trace order - the
    // clear recorded on this return node is processed first (paper §III-F).
    // The fiber can be pooled immediately; only the strand record is held.
    trace_push(ws, u);
    return false;
  }
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
      shards_.empty() ? 2 : std::int32_t(shards_.size());
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
  if (shards_.empty() && published) {
    s->consumers.fetch_sub(1, std::memory_order_acq_rel);
  }
}

void PintDetector::process_writer(Strand* s) {
  const bool strand_watch = watch_ == Watch::kStrand;
  if (strand_watch) writer_watch_.start();
  {
    // Span nested just inside the watch so the watch's CLOCK_THREAD_CPUTIME
    // reads (hundreds of ns each) stay out of the span; the exported
    // writer.strand sum then tracks Stats::writer_ns (the Fig. 2 "writer"
    // bar) to within the much cheaper span-record overhead.
    PINT_TSPAN("writer.strand");
    if (!shards_.empty()) {
      // Sharded mode: the collector does no history work itself; shards own
      // both stores. Deferred resources are still released here (the
      // queue-order argument of paper SIII-F is unchanged).
    } else if (opt_.history == detect::HistoryKind::kTreap) {
      detect::process_writer_treap(writer_treap_, *s, reach_, rep_, stats_);
    } else {
      detect::process_writer_treap(writer_map_, *s, reach_, rep_, stats_);
    }
    // Deferred frees become real here: any later reuse of this memory is by
    // a strand collected after s, so each treap erases the range before
    // seeing the new owner's accesses (paper §III-F).
    for (const detect::HeapFree& hf : s->frees) std::free(hf.base);
    if (s->retired_frame != nullptr) {
      // Same argument for the fiber stack: reuse is only possible for
      // strands that land later in the access-history order.
      sched_->release_frame(s->retired_frame);
      s->retired_frame = nullptr;
    }
  }
  if (strand_watch) writer_watch_.stop();
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
  const bool batch_watch = watch_ == Watch::kBatch;
  LaneIdle idle(writer_wake_);
  for (;;) {
    if (PINT_UNLIKELY(cancel_.load(std::memory_order_relaxed))) break;
    const bool done_before_scan = core_done_.load(std::memory_order_acquire);
    // Batch watch: one clock read per scan; only a scan that collected
    // something adds its time (an empty scan is idle, not busy).
    if (batch_watch) writer_watch_.start();
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
    if (batch_watch && progress) writer_watch_.stop();
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

template <class ProcessFn>
void PintDetector::consume_loop(ConsumerLane& lane, StopwatchAccum& watch,
                                ProcessFn&& process) {
  queue_.register_consumer();
  const bool strand_watch = watch_ == Watch::kStrand;
  const bool batch_watch = watch_ == Watch::kBatch;
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
    if (batch_watch) watch.start();
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
        if (strand_watch) watch.start();
        process(queue_.at(i));
        if (strand_watch) watch.stop();
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
    if (batch_watch) watch.stop();
  }
  lane.hb.set_idle(true);
  queue_.unregister_consumer();
  // Local tallies folded once per lane at exit; run() joins this thread
  // before snapshotting (Stats quiescence contract).
  stats_.batch_drains.fetch_add(batches, std::memory_order_relaxed);
  stats_.batch_strands.fetch_add(drained, std::memory_order_relaxed);
  stats_.prefetch_issues.fetch_add(prefetches, std::memory_order_relaxed);
}

void PintDetector::reader_loop() {
  telem::set_thread_role("reader");
  const bool use_treap = opt_.history == detect::HistoryKind::kTreap;
  consume_loop(*lanes_[0], reader_watch_, [&](Strand* s) {
    // Nested inside the watch (see process_writer): span sum ~= *_ns.
    PINT_TSPAN("reader.strand");
    if (use_treap) {
      detect::process_reader_treap(reader_treap_, *s, reach_, rep_, stats_);
    } else {
      detect::process_reader_treap(reader_map_, *s, reach_, rep_, stats_);
    }
  });
}

void PintDetector::shard_loop(int shard) {
  if (telem::enabled()) {
    char role[16];
    std::snprintf(role, sizeof(role), "shard%d", shard);
    telem::set_thread_role(role);
  }
  HistoryShard& hs = *shards_[std::size_t(shard)];
  const int n = int(shards_.size());
  consume_loop(*lanes_[std::size_t(shard)], hs.watch, [&](Strand* s) {
    PINT_TSPAN("shard.strand");
    hs.process(*s, shard, n, reach_, rep_, stats_);
  });
}

void PintDetector::finish_history_sequential() {
  // Each lane is one uninterrupted phase on this thread, so the stopwatches
  // wrap the phases instead of every strand (see watch_).  The writer
  // phase's watch covers collection too - which is the writer worker's job
  // in the paper's breakdown anyway.  Traced runs keep the per-strand
  // watches (the phase watch also counts loop bookkeeping between strands).
  watch_ = telem::enabled() ? Watch::kStrand : Watch::kPhase;
  const bool pw = watch_ == Watch::kPhase;
  // Phase 1: collection (+ writer treap in the classic configuration).
  if (pw) writer_watch_.start();
  writer_loop();
  if (pw) writer_watch_.stop();
  if (!shards_.empty()) {
    for (int k = 0; k < int(shards_.size()); ++k) {
      HistoryShard& hs = *shards_[std::size_t(k)];
      if (pw) hs.watch.start();
      shard_loop(k);
      if (pw) hs.watch.stop();
    }
    return;
  }
  // Phase 2: the two-sided reader store over the same global order.
  if (pw) reader_watch_.start();
  reader_loop();
  if (pw) reader_watch_.stop();
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
                                         std::vector<std::thread>* history) {
  // Threads hold at the gate until the whole batch spawned: none of them
  // touches the queue (producer pin, consumer registration) or the trace
  // cursors before release, so a partial batch can be joined and the run
  // rolled over to sequential-history mode with no shared state poisoned.
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
        if (!wait_gate(gate_)) return;
        if (shards_.empty()) {
          reader_loop();
        } else {
          shard_loop(k);
        }
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
    error_headerf("history thread spawn failed (%s): falling back to the "
                  "sequential one-core history mode\n",
                  e.what());
    return false;
  }
  gate_.store(1, std::memory_order_release);
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
  // Tuning snapshot -> process globals (access fast path, bulk apply);
  // the per-detector knobs are read from opt_.tuning directly.
  opt_.tuning.apply_globals();
  RunResult result;

  set_run_context("seed=%llu cw=%d shards=%d mode=%s",
                  (unsigned long long)opt_.seed, opt_.core_workers,
                  int(shards_.size()), seq_history_ ? "seq" : "par");

  rt::Scheduler::Options so;
  so.workers = opt_.core_workers;
  so.hooks = this;
  so.stack_bytes = opt_.stack_bytes;
  so.seed = opt_.seed;
  rt::Scheduler sched(so);
  sched_ = &sched;

  for (int i = 0; i < opt_.core_workers; ++i) {
    sched.worker(i).det_worker = ws_[i].get();
    Trace* t = alloc_trace();
    t->init(alloc_chunk());
    ws_[i]->cur = t;
    ws_[i]->ccur = t;
    ws_[i]->traces = 1;
  }

  detect::set_active_detector(this);
  // Deep-backoff attribution: the counter is process-wide, so record the
  // run's share as a delta (concurrent detector runs would blur it - fine
  // for a monitoring counter).
  const std::uint64_t deep_backoffs_at_start = Backoff::deep_entries();

  std::thread writer;
  std::vector<std::thread> history;
  // Pipelined lanes time drained batches (phased mode decides its own watch
  // in finish_history_sequential); the spawn gate publishes this.
  watch_ = telem::enabled() ? Watch::kStrand : Watch::kBatch;
  if (!seq_history_ && !spawn_history_threads(&writer, &history)) {
    // Graceful fallback: the paper's phased one-core history mode needs no
    // extra threads.  Detection stays exact; only the asynchrony is lost.
    seq_history_ = true;
    result.degraded_sequential_history = true;
    set_run_context("seed=%llu cw=%d shards=%d mode=seq-fallback",
                    (unsigned long long)opt_.seed, opt_.core_workers,
                    int(shards_.size()));
  }

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
    sink.gauge("pool.strands", std::uint64_t(std::max<std::int64_t>(
                                   0, strands_outstanding_.load(
                                          std::memory_order_relaxed))));
    sink.gauge("pool.traces", std::uint64_t(std::max<std::int64_t>(
                                  0, traces_outstanding_.load(
                                         std::memory_order_relaxed))));
    sink.gauge("pool.chunks", std::uint64_t(std::max<std::int64_t>(
                                  0, chunks_outstanding_.load(
                                         std::memory_order_relaxed))));
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
  if (!seq_history_) {
    Timer core;
    sched.run([&] { fn(); });
    stats_.core_ns.store(core.elapsed_ns());

    for (auto& ws : ws_) ws->cur->mark_finished();
    core_done_.store(true, std::memory_order_release);
    writer_wake_.wake();
    writer.join();
    for (auto& t : history) t.join();
  } else {
    Timer core;
    sched.run([&] { fn(); });
    stats_.core_ns.store(core.elapsed_ns());
    for (auto& ws : ws_) ws->cur->mark_finished();
    core_done_.store(true, std::memory_order_release);
    finish_history_sequential();
  }
  stats_.total_ns.store(total.elapsed_ns());

  wd.disarm();
  sampler.stop();
  stats_.writer_ns.store(writer_watch_.total_ns());
  if (shards_.empty()) {
    // One reader lane: it is lreader_ns, and rreader_ns stays 0.
    stats_.lreader_ns.store(reader_watch_.total_ns());
  } else {
    // Sharded mode: lreader_ns = busiest shard, rreader_ns = total shard work.
    std::uint64_t mx = 0, sum = 0;
    for (const auto& sh : shards_) {
      mx = std::max(mx, sh->watch.total_ns());
      sum += sh->watch.total_ns();
    }
    stats_.lreader_ns.store(mx);
    stats_.rreader_ns.store(sum);
  }
  stats_.steals.store(sched.total_steals());
  for (auto& ws : ws_) {
    stats_.raw_reads.fetch_add(ws->raw_reads);
    stats_.raw_writes.fetch_add(ws->raw_writes);
    stats_.read_intervals.fetch_add(ws->seal.read_intervals);
    stats_.write_intervals.fetch_add(ws->seal.write_intervals);
    stats_.strands.fetch_add(ws->strands);
    stats_.traces.fetch_add(ws->traces);
    stats_.fastpath_accesses.fetch_add(ws->fast_accesses);
    stats_.fastpath_hits.fetch_add(ws->fast_hits);
    stats_.cursor_spills.fetch_add(ws->cursor_spills);
    stats_.slowpath_accesses.fetch_add(ws->slow_accesses);
    stats_.lock_splits.fetch_add(ws->seal.lock_splits);
    stats_.tail_probe_hits.fetch_add(ws->seal.tail_hits);
    stats_.tail_probe_misses.fetch_add(ws->seal.tail_misses);
    stats_.finalize_sorted_skips.fetch_add(ws->seal.fin_sorted);
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
