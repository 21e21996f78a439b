#include "stint/stint_detector.hpp"

#include <cstdlib>
#include <memory>

#include "detect/instrument.hpp"

namespace pint::stint {

using detect::Strand;

StintDetector::StintDetector(const Options& opt)
    : opt_(opt),
      history_(opt.history, 0, detect::Schedule::kInline, reach_, rep_,
               stats_) {
  rep_.set_verbose(opt_.verbose_races);
}

StintDetector::~StintDetector() = default;

Strand* StintDetector::alloc_strand() {
  Strand* s = free_list_;
  if (s != nullptr) {
    free_list_ = s->pool_next;
  } else {
    owned_.push_back(std::make_unique<Strand>());
    s = owned_.back().get();
  }
  s->reset(++next_sid_);
  ++tally_.strands;
  return s;
}

void StintDetector::recycle_strand(Strand* s) {
  s->pool_next = free_list_;
  free_list_ = s;
}

void StintDetector::process_strand(Strand* s) {
  tally_.cursor_flush(*s);  // pending cursor intervals land in s first
  detect::seal_strand(*s, opt_.coalesce, tally_.seal);
  // Empty-strand skip (DESIGN.md §13): no accesses, clears or frees means
  // the history passes would be no-ops - skip their stopwatch reads and
  // spans entirely.
  if (!s->has_work()) {
    stats_.empty_strand_skips.fetch_add(1, std::memory_order_relaxed);
    recycle_strand(s);
    return;
  }
  // STINT's history runs inline on the execution thread; its two lanes'
  // spans make the writer/reader passes comparable with PINT's tracks.
  history_.strand(history_.lane(0), *s);
  history_.strand(history_.lane(1), *s);
  recycle_strand(s);
}

// --- lock events (DESIGN.md §12) ---------------------------------------

void StintDetector::on_lock_acquire(rt::Worker&, rt::TaskFrame& f,
                                    detect::addr_t lock) {
  detect::CoreTally::lock_event(opt_.tuning.lock_edges,
                                static_cast<Strand*>(f.det_strand), lock,
                                true);
}

void StintDetector::on_lock_release(rt::Worker&, rt::TaskFrame& f,
                                    detect::addr_t lock) {
  detect::CoreTally::lock_event(opt_.tuning.lock_edges,
                                static_cast<Strand*>(f.det_strand), lock,
                                false);
}

// --- memory events -----------------------------------------------------

void StintDetector::on_access(rt::Worker&, rt::TaskFrame& f, detect::addr_t lo,
                              detect::addr_t hi, bool is_write) {
  tally_.access(static_cast<Strand*>(f.det_strand), lo, hi, is_write,
                opt_.coalesce);
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
  tally_.cursor_flush(*u);
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
  Timer total;
  sched.run([&] { fn(); });
  stats_.total_ns.store(total.elapsed_ns());
  detect::set_active_detector(nullptr);

  tally_.fold(stats_);
  history_.fold(stats_);
  stats_.core_ns.store(stats_.total_ns.load() - stats_.writer_ns.load() -
                       stats_.lreader_ns.load());
  stats_.export_telemetry();
  return {};
}

}  // namespace pint::stint
