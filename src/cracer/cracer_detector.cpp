#include "cracer/cracer_detector.hpp"

#include <cstdlib>

#include "detect/instrument.hpp"

#include <atomic>

namespace pint::cracer {

namespace {
/// Per-worker access counters (plain fields: one writer each).
struct WsCount {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
};

/// Cell sids are probed without the cell lock (fast paths), so publication
/// must be atomic. Stores happen under the lock; the probe is relaxed - a
/// stale value only misses the fast path, never skips a needed update.
std::uint64_t peek_sid(const AccessorRec& r) {
  return std::atomic_ref<std::uint64_t>(const_cast<std::uint64_t&>(r.sid))
      .load(std::memory_order_relaxed);
}
void set_rec(AccessorRec& dst, const AccessorRec& src) {
  dst.label = src.label;
  dst.tag = src.tag;
  dst.lsid = src.lsid;
  std::atomic_ref<std::uint64_t>(dst.sid).store(src.sid,
                                                std::memory_order_relaxed);
}

/// Conflict filter: skip the (dearer) reachability query when both sides'
/// segments held a common mutex - the pair cannot be a race either way.
bool lock_guarded(const AccessorRec& prev, const AccessorRec& me) {
  return detect::locksets_share(prev.lsid, me.lsid);
}
}  // namespace

CracerDetector::CracerDetector(const Options& opt)
    : opt_(opt), shadow_(opt.shadow_table_pow2) {
  rep_.set_verbose(opt_.verbose_races);
}

AccessorRec* CracerDetector::alloc_strand(const reach::Engine::Label& label,
                                          const char* tag,
                                          detect::lockset_t lsid) {
  LockGuard<Spinlock> g(arena_mu_);
  arena_.push_back({label,
                    next_sid_.fetch_add(1, std::memory_order_relaxed) + 1, tag,
                    lsid});
  strands_.fetch_add(1, std::memory_order_relaxed);
  return &arena_.back();
}

// ---------------------------------------------------------------------------
// Shadow-cell protocol (Mellor-Crummey '91 triple, DePa reachability)
// ---------------------------------------------------------------------------

void CracerDetector::read_cell(ShadowCell& c, const AccessorRec& me) {
  // Fast path: this strand is already recorded as a reader of the cell, so
  // re-reading changes nothing (any conflicting writer since then reports
  // the race from its own write_cell check).
  if (peek_sid(c.lreader) == me.sid || peek_sid(c.rreader) == me.sid) return;
  LockGuard<Spinlock> g(c.lock);
  if (c.writer.sid != 0 && c.writer.sid != me.sid &&
      !lock_guarded(c.writer, me)) {
    stats_.reach_queries.fetch_add(1, std::memory_order_relaxed);
    if (reach_.parallel(c.writer.label, me.label)) {
      rep_.report(c.writer.sid, /*prev_write=*/true, me.sid,
                  /*cur_write=*/false, 0, 0, c.writer.tag, me.tag);
    }
  }
  if (c.lreader.sid == 0) {
    set_rec(c.lreader, me);
    set_rec(c.rreader, me);
    return;
  }
  if (c.lreader.sid == me.sid || c.rreader.sid == me.sid) return;
  stats_.reach_queries.fetch_add(2, std::memory_order_relaxed);
  if (reach_.precedes(c.lreader.label, me.label) &&
      reach_.precedes(c.rreader.label, me.label)) {
    // In series after every recorded parallel reader: me replaces the set.
    set_rec(c.lreader, me);
    set_rec(c.rreader, me);
    return;
  }
  // Otherwise keep the extremes in English (depth-first execution) order.
  if (reach_.left_of(me.label, c.lreader.label)) set_rec(c.lreader, me);
  if (reach_.left_of(c.rreader.label, me.label)) set_rec(c.rreader, me);
}

void CracerDetector::write_cell(ShadowCell& c, const AccessorRec& me) {
  // Fast path: this strand is already the last writer; a repeated write
  // changes nothing (conflicting readers/writers report from their side).
  if (peek_sid(c.writer) == me.sid) return;
  LockGuard<Spinlock> g(c.lock);
  if (c.writer.sid != 0 && c.writer.sid != me.sid &&
      !lock_guarded(c.writer, me)) {
    stats_.reach_queries.fetch_add(1, std::memory_order_relaxed);
    if (reach_.parallel(c.writer.label, me.label)) {
      rep_.report(c.writer.sid, true, me.sid, true, 0, 0, c.writer.tag,
                  me.tag);
    }
  }
  if (c.lreader.sid != 0 && c.lreader.sid != me.sid &&
      !lock_guarded(c.lreader, me)) {
    stats_.reach_queries.fetch_add(1, std::memory_order_relaxed);
    if (reach_.parallel(c.lreader.label, me.label)) {
      rep_.report(c.lreader.sid, false, me.sid, true, 0, 0, c.lreader.tag,
                  me.tag);
    }
  }
  if (c.rreader.sid != 0 && c.rreader.sid != me.sid &&
      c.rreader.sid != c.lreader.sid && !lock_guarded(c.rreader, me)) {
    stats_.reach_queries.fetch_add(1, std::memory_order_relaxed);
    if (reach_.parallel(c.rreader.label, me.label)) {
      rep_.report(c.rreader.sid, false, me.sid, true, 0, 0, c.rreader.tag,
                  me.tag);
    }
  }
  set_rec(c.writer, me);
}

// ---------------------------------------------------------------------------
// Memory events
// ---------------------------------------------------------------------------

void CracerDetector::on_access(rt::Worker& w, rt::TaskFrame& f,
                               detect::addr_t lo, detect::addr_t hi,
                               bool is_write) {
  auto* me = static_cast<AccessorRec*>(f.det_strand);
  PINT_ASSERT(me != nullptr);
  auto* cnt = static_cast<WsCount*>(w.det_worker);
  if (is_write) {
    ++cnt->writes;
    shadow_.for_cells(lo, hi, [&](ShadowCell& c) { write_cell(c, *me); });
  } else {
    ++cnt->reads;
    shadow_.for_cells(lo, hi, [&](ShadowCell& c) { read_cell(c, *me); });
  }
}

void CracerDetector::on_heap_free(rt::Worker&, rt::TaskFrame&, void* base,
                                  detect::addr_t lo, detect::addr_t hi) {
  // Synchronous detector: clear the history for the block, then free.
  shadow_.clear_range(lo, hi);
  std::free(base);
}

// ---------------------------------------------------------------------------
// Control events (reachability labels only; no traces, no queues)
// ---------------------------------------------------------------------------

void CracerDetector::on_root_start(rt::Worker&, rt::TaskFrame& f) {
  f.det_strand = alloc_strand(reach_.root_label(), f.task_name);
}

void CracerDetector::on_spawn(rt::Worker&, rt::TaskFrame& parent,
                              rt::SyncBlock& blk, rt::TaskFrame& child) {
  auto* u = static_cast<AccessorRec*>(parent.det_strand);
  auto* j = static_cast<AccessorRec*>(blk.det_sync);
  if (j == nullptr) {
    j = alloc_strand({}, parent.task_name);
    blk.det_sync = j;
  }
  const auto labels = reach_.on_spawn(u->label, &j->label);
  // Lockset rule (same as every detector): the continuation inherits the
  // parent's held locks, the child starts empty.
  child.det_strand = alloc_strand(labels.child, child.task_name);
  parent.det_cont = alloc_strand(labels.cont, parent.task_name, u->lsid);
}

void CracerDetector::on_lock_event(rt::TaskFrame& f, detect::addr_t lock,
                                   bool acquire) {
  auto* u = static_cast<AccessorRec*>(f.det_strand);
  PINT_ASSERT(u != nullptr);
  auto& tbl = detect::LocksetTable::instance();
  const detect::lockset_t nid =
      acquire ? tbl.acquire(u->lsid, lock) : tbl.release(u->lsid, lock);
  if (nid == u->lsid) return;
  // Continue under the same label with a FRESH sid: the per-cell fast paths
  // dedup on sid, so the new segment's accesses re-record with the new
  // lockset; same-label segments are never judged parallel to each other.
  f.det_strand = alloc_strand(u->label, u->tag, nid);
}

void CracerDetector::on_lock_acquire(rt::Worker&, rt::TaskFrame& f,
                                     detect::addr_t lock) {
  if (!opt_.tuning.lock_edges) return;
  on_lock_event(f, lock, true);
}

void CracerDetector::on_lock_release(rt::Worker&, rt::TaskFrame& f,
                                     detect::addr_t lock) {
  if (!opt_.tuning.lock_edges) return;
  on_lock_event(f, lock, false);
}

void CracerDetector::on_spawn_return(rt::Worker&, rt::TaskFrame& child, bool) {
  // The spawned function's stack dies; clear it before the fiber is pooled
  // (synchronously - the runtime reuses the fiber only after this returns).
  shadow_.clear_range(child.fiber->stack_lo(), child.fiber->stack_hi() - 1);
}

void CracerDetector::on_continuation(rt::Worker&, rt::TaskFrame& parent,
                                     bool) {
  PINT_ASSERT(parent.det_cont != nullptr);
  auto* t = static_cast<AccessorRec*>(parent.det_cont);
  parent.det_strand = t;
  parent.det_cont = nullptr;
}

void CracerDetector::on_after_sync(rt::Worker&, rt::TaskFrame& f,
                                   rt::SyncBlock& blk, bool) {
  auto* j = static_cast<AccessorRec*>(blk.det_sync);
  if (j == nullptr) return;
  f.det_strand = j;
  blk.det_sync = nullptr;
}

// ---------------------------------------------------------------------------
// Run
// ---------------------------------------------------------------------------

detect::RunResult CracerDetector::run(std::function<void()> fn) {
  PINT_CHECK_MSG(!used_, "CracerDetector instances are single-use");
  used_ = true;
  opt_.tuning.apply_globals();

  rt::Scheduler::Options so;
  so.workers = opt_.workers;
  so.hooks = this;
  so.stack_bytes = opt_.stack_bytes;
  so.seed = opt_.seed;
  rt::Scheduler sched(so);

  std::vector<WsCount> counts(std::size_t(opt_.workers));
  for (int i = 0; i < opt_.workers; ++i) {
    sched.worker(i).det_worker = &counts[std::size_t(i)];
  }

  detect::set_active_detector(this);
  Timer total;
  sched.run([&] { fn(); });
  stats_.total_ns.store(total.elapsed_ns());
  stats_.core_ns.store(total.elapsed_ns());
  detect::set_active_detector(nullptr);

  for (const WsCount& c : counts) {
    stats_.raw_reads.fetch_add(c.reads);
    stats_.raw_writes.fetch_add(c.writes);
  }
  stats_.strands.store(strands_.load());
  stats_.steals.store(sched.total_steals());
  return {};
}

}  // namespace pint::cracer
