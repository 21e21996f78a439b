#include "stint/stint_detector.hpp"

#include <cstdlib>
#include <memory>

#include "detect/instrument.hpp"
#include "support/arena.hpp"
#include "support/telemetry.hpp"

namespace pint::stint {

using detect::Strand;

StintDetector::StintDetector(const Options& opt)
    : opt_(opt) {
  rep_.set_verbose(opt_.verbose_races);
}

StintDetector::~StintDetector() {
  // Arena retirement (DESIGN.md §13): the whole owned set goes back to the
  // process-wide recycler in one hand-off; with the knob off give_all
  // destroys them, matching the old per-object delete.
  std::vector<std::unique_ptr<Strand>> batch;
  batch.reserve(owned_.size());
  for (Strand* s : owned_) batch.emplace_back(s);
  support::Recycler<Strand>::instance().give_all(&batch);
}

Strand* StintDetector::alloc_strand() {
  Strand* s = free_list_;
  if (s != nullptr) {
    free_list_ = s->pool_next;
  } else if (auto rec = support::Recycler<Strand>::instance().take()) {
    s = rec.release();
    owned_.push_back(s);
  } else {
    support::note_arena_fresh();
    s = new Strand();
    owned_.push_back(s);
  }
  s->reset(++next_sid_);
  ++strands_;
  return s;
}

void StintDetector::recycle_strand(Strand* s) {
  s->pool_next = free_list_;
  free_list_ = s;
}

void StintDetector::cursor_flush(Strand& s) {
  const detect::CursorFlush fl = detect::detach_cursor(s);
  raw_reads_ += fl.raw_reads;
  raw_writes_ += fl.raw_writes;
  fast_accesses_ += fl.raw_reads + fl.raw_writes;
  fast_hits_ += fl.hits;
  cursor_spills_ += fl.spills;
}

void StintDetector::process_strand(Strand* s) {
  cursor_flush(*s);  // pending cursor intervals land in s before the seal
  detect::seal_strand(*s, opt_.coalesce, seal_);
  // Empty-strand skip (DESIGN.md §13): no accesses, clears or frees means
  // the history phases would be no-ops - skip their stopwatch reads and
  // spans entirely.
  if (!s->has_work()) {
    stats_.empty_strand_skips.fetch_add(1, std::memory_order_relaxed);
    recycle_strand(s);
    return;
  }
  // STINT's history runs inline on the execution thread; the two spans make
  // its writer/reader phases comparable with PINT's asynchronous tracks.
  writer_watch_.start();
  {
    // Span nested inside the watch so the CPU-clock reads stay out of it
    // (same reasoning as PintDetector::process_writer).
    PINT_TSPAN("stint.writer");
    if (opt_.history == detect::HistoryKind::kTreap) {
      detect::process_writer_treap(writer_treap_, *s, reach_, rep_, stats_);
    } else {
      detect::process_writer_treap(writer_map_, *s, reach_, rep_, stats_);
    }
  }
  writer_watch_.stop();
  reader_watch_.start();
  {
    PINT_TSPAN("stint.reader");
    if (opt_.history == detect::HistoryKind::kTreap) {
      detect::process_reader_treap(reader_treap_, *s, reach_, rep_, stats_);
    } else {
      detect::process_reader_treap(reader_map_, *s, reach_, rep_, stats_);
    }
  }
  reader_watch_.stop();
  recycle_strand(s);
}

// --- lock events (DESIGN.md §12) ---------------------------------------

// Reached only when the access cursor cannot switch lanes itself
// (detect::note_lock_event).
void StintDetector::on_lock_acquire(rt::Worker&, rt::TaskFrame& f,
                                    detect::addr_t lock) {
  if (!opt_.tuning.lock_edges) return;
  PINT_ASSERT(f.det_strand != nullptr);
  detect::note_lock_event(*static_cast<Strand*>(f.det_strand), lock, true);
}

void StintDetector::on_lock_release(rt::Worker&, rt::TaskFrame& f,
                                    detect::addr_t lock) {
  if (!opt_.tuning.lock_edges) return;
  PINT_ASSERT(f.det_strand != nullptr);
  detect::note_lock_event(*static_cast<Strand*>(f.det_strand), lock, false);
}

// --- memory events -----------------------------------------------------

void StintDetector::on_access(rt::Worker&, rt::TaskFrame& f, detect::addr_t lo,
                              detect::addr_t hi, bool is_write) {
  // Classic route: taken only when the AccessCursor fast path is disabled.
  auto* s = static_cast<Strand*>(f.det_strand);
  PINT_ASSERT(s != nullptr);
  ++slow_accesses_;
  detect::AccessBuffer& buf =
      is_write ? s->active().writes : s->active().reads;
  ++(is_write ? raw_writes_ : raw_reads_);
  if (opt_.coalesce) {
    buf.add(lo, hi);
  } else {
    buf.add_raw(lo, hi);
  }
}

void StintDetector::on_heap_free(rt::Worker&, rt::TaskFrame& f, void* base,
                                 detect::addr_t lo, detect::addr_t hi) {
  // Synchronous detector: the memory may be handed back to the allocator at
  // once - any strand that reuses it is processed after this strand (serial
  // order), by which point the range below has been erased.
  std::free(base);
  auto* s = static_cast<Strand*>(f.det_strand);
  s->frees.push_back({nullptr, lo, hi});
}

// --- control events (serial execution: nothing is ever stolen) ---------

void StintDetector::on_root_start(rt::Worker&, rt::TaskFrame& f) {
  Strand* r = alloc_strand();
  r->label = reach_.root_label();
  r->tag = f.task_name;
  f.det_strand = r;
  detect::install_cursor(*r, opt_.coalesce);
}

void StintDetector::on_root_end(rt::Worker&, rt::TaskFrame& f) {
  auto* u = static_cast<Strand*>(f.det_strand);
  u->clears.push_back({f.fiber->stack_lo(), f.fiber->stack_hi() - 1});
  process_strand(u);
  f.det_strand = nullptr;
}

void StintDetector::on_spawn(rt::Worker&, rt::TaskFrame& parent,
                             rt::SyncBlock& blk, rt::TaskFrame& child) {
  auto* u = static_cast<Strand*>(parent.det_strand);
  auto* j = static_cast<Strand*>(blk.det_sync);
  if (j == nullptr) {
    j = alloc_strand();
    blk.det_sync = j;
  }
  if (j->tag == nullptr) j->tag = parent.task_name;
  const auto labels = reach_.on_spawn(u->label, &j->label);
  Strand* g = alloc_strand();
  g->label = labels.child;
  g->tag = child.task_name;
  Strand* t = alloc_strand();
  t->label = labels.cont;
  t->tag = parent.task_name;
  // The continuation still holds whatever the parent held at the spawn; the
  // child starts with an empty lockset (it may run on another worker that
  // does NOT hold the parent's mutexes - inheriting would hide real races).
  // u's current sub-record is its held lockset once the cursor hands back
  // its last lock lane.
  cursor_flush(*u);
  t->active().lsid = u->held();
  child.det_strand = g;
  parent.det_cont = t;
  process_strand(u);
  // The spawned child runs next (serial elision order).
  detect::install_cursor(*g, opt_.coalesce);
}

void StintDetector::on_spawn_return(rt::Worker&, rt::TaskFrame& child,
                                    bool continuation_stolen) {
  PINT_CHECK_MSG(!continuation_stolen, "STINT must run on one worker");
  auto* u = static_cast<Strand*>(child.det_strand);
  u->clears.push_back({child.fiber->stack_lo(), child.fiber->stack_hi() - 1});
  process_strand(u);
  child.det_strand = nullptr;
}

void StintDetector::on_continuation(rt::Worker&, rt::TaskFrame& parent,
                                    bool stolen) {
  PINT_CHECK_MSG(!stolen, "STINT must run on one worker");
  auto* t = static_cast<Strand*>(parent.det_cont);
  parent.det_strand = t;
  parent.det_cont = nullptr;
  detect::install_cursor(*t, opt_.coalesce);
}

void StintDetector::on_sync(rt::Worker&, rt::TaskFrame& f, rt::SyncBlock& blk,
                            bool trivial) {
  PINT_CHECK_MSG(trivial, "STINT must run on one worker");
  if (blk.det_sync == nullptr) return;  // no spawn since the last sync
  auto* u = static_cast<Strand*>(f.det_strand);
  process_strand(u);
  f.det_strand = nullptr;
}

void StintDetector::on_after_sync(rt::Worker&, rt::TaskFrame& f,
                                  rt::SyncBlock& blk, bool) {
  auto* j = static_cast<Strand*>(blk.det_sync);
  if (j == nullptr) return;  // cursor of the continuing strand stays live
  f.det_strand = j;
  blk.det_sync = nullptr;
  detect::install_cursor(*j, opt_.coalesce);
}

// --- run ----------------------------------------------------------------

detect::RunResult StintDetector::run(std::function<void()> fn) {
  PINT_CHECK_MSG(!used_, "StintDetector instances are single-use");
  used_ = true;
  opt_.tuning.apply_globals();

  rt::Scheduler::Options so;
  so.workers = 1;  // STINT executes the computation sequentially
  so.hooks = this;
  so.stack_bytes = opt_.stack_bytes;
  so.seed = opt_.seed;
  rt::Scheduler sched(so);

  detect::set_active_detector(this);
  const support::ArenaCounters arena0 = support::arena_counters();
  Timer total;
  sched.run([&] { fn(); });
  stats_.total_ns.store(total.elapsed_ns());
  detect::set_active_detector(nullptr);

  stats_.raw_reads.store(raw_reads_);
  stats_.raw_writes.store(raw_writes_);
  stats_.read_intervals.store(seal_.read_intervals);
  stats_.write_intervals.store(seal_.write_intervals);
  stats_.strands.store(strands_);
  stats_.fastpath_accesses.store(fast_accesses_);
  stats_.fastpath_hits.store(fast_hits_);
  stats_.cursor_spills.store(cursor_spills_);
  stats_.slowpath_accesses.store(slow_accesses_);
  stats_.lock_splits.store(seal_.lock_splits);
  stats_.tail_probe_hits.store(seal_.tail_hits);
  stats_.tail_probe_misses.store(seal_.tail_misses);
  stats_.finalize_sorted_skips.store(seal_.fin_sorted);
  // Arena counters are process-wide monotonic; attribute this run's delta.
  const support::ArenaCounters arena1 = support::arena_counters();
  stats_.arena_reuses.store(arena1.reuses - arena0.reuses);
  stats_.arena_fresh.store(arena1.fresh - arena0.fresh);
  stats_.writer_ns.store(writer_watch_.total_ns());
  stats_.lreader_ns.store(reader_watch_.total_ns());
  stats_.core_ns.store(total.elapsed_ns() - writer_watch_.total_ns() -
                       reader_watch_.total_ns());
  stats_.export_telemetry();
  return {};
}

}  // namespace pint::stint
