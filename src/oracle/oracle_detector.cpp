#include "oracle/oracle_detector.hpp"

#include <cstdlib>

#include "detect/instrument.hpp"
#include "support/assert.hpp"
#include "support/timer.hpp"

namespace pint::oracle {

OracleDetector::OracleDetector(const Options& opt) : opt_(opt) {
  rep_.set_verbose(opt_.verbose_races);
}

OracleDetector::~OracleDetector() {
  for (StrandInfo* s : strands_) delete s;
}

OracleDetector::StrandInfo* OracleDetector::alloc_strand(
    const reach::Engine::Label& l, detect::lockset_t lsid) {
  auto* s = new StrandInfo{l, ++next_sid_, lsid};
  strands_.push_back(s);
  return s;
}

void OracleDetector::record(StrandInfo* who, detect::addr_t lo,
                            detect::addr_t hi, bool write) {
  const auto g = opt_.granule;
  for (detect::addr_t a = lo / g; a <= hi / g; ++a) {
    auto& hist = bytes_[a];
    bool already = false;
    for (const Access& prev : hist) {
      if (prev.who == who) {
        if (prev.write == write) already = true;
        continue;  // a strand cannot race with itself
      }
      if (!prev.write && !write) continue;  // read-read never races
      if (detect::locksets_share(prev.who->lsid, who->lsid)) {
        continue;  // both segments held a common mutex: not a race
      }
      if (reach_.parallel(prev.who->label, who->label)) {
        auto a_sid = prev.who->sid, b_sid = who->sid;
        if (a_sid > b_sid) std::swap(a_sid, b_sid);
        if (pairs_.insert({a_sid, b_sid}).second) {
          // Mirror the pair into the shared reporter so DetectorRunner
          // callers see the oracle's verdict the same way as any detector's.
          rep_.report(prev.who->sid, prev.write, who->sid, write, a * g,
                      a * g + g - 1);
        }
      }
    }
    if (!already) hist.push_back({who, write});
  }
}

void OracleDetector::clear_range(detect::addr_t lo, detect::addr_t hi) {
  const auto g = opt_.granule;
  auto it = bytes_.lower_bound(lo / g);
  const auto end = bytes_.upper_bound(hi / g);
  while (it != end) it = bytes_.erase(it);
}

void OracleDetector::on_access(rt::Worker&, rt::TaskFrame& f, detect::addr_t lo,
                               detect::addr_t hi, bool is_write) {
  record(static_cast<StrandInfo*>(f.det_strand), lo, hi, is_write);
}

void OracleDetector::on_heap_free(rt::Worker&, rt::TaskFrame&, void* base,
                                  detect::addr_t lo, detect::addr_t hi) {
  clear_range(lo, hi);
  std::free(base);
}

void OracleDetector::on_root_start(rt::Worker&, rt::TaskFrame& f) {
  f.det_strand = alloc_strand(reach_.root_label());
}

void OracleDetector::on_spawn(rt::Worker&, rt::TaskFrame& parent,
                              rt::SyncBlock& blk, rt::TaskFrame& child) {
  auto* u = static_cast<StrandInfo*>(parent.det_strand);
  auto* j = static_cast<StrandInfo*>(blk.det_sync);
  if (j == nullptr) {
    j = alloc_strand({});
    blk.det_sync = j;
  }
  const auto labels = reach_.on_spawn(u->label, &j->label);
  // Same lockset rule as every detector: the continuation inherits the
  // parent's held locks, the child starts empty (see StintDetector).
  child.det_strand = alloc_strand(labels.child);
  parent.det_cont = alloc_strand(labels.cont, u->lsid);
}

void OracleDetector::on_lock_event(rt::TaskFrame& f, detect::addr_t lock,
                                   bool acquire) {
  auto* u = static_cast<StrandInfo*>(f.det_strand);
  PINT_ASSERT(u != nullptr);
  auto& tbl = detect::LocksetTable::instance();
  const detect::lockset_t nid =
      acquire ? tbl.acquire(u->lsid, lock) : tbl.release(u->lsid, lock);
  if (nid == u->lsid) return;
  // New segment: same label (sibling segments are ordered by neither order,
  // so they can never be judged parallel), fresh sid so the per-byte dedup
  // re-records accesses under the new lockset.
  f.det_strand = alloc_strand(u->label, nid);
}

void OracleDetector::on_lock_acquire(rt::Worker&, rt::TaskFrame& f,
                                     detect::addr_t lock) {
  if (!opt_.tuning.lock_edges) return;
  on_lock_event(f, lock, true);
}

void OracleDetector::on_lock_release(rt::Worker&, rt::TaskFrame& f,
                                     detect::addr_t lock) {
  if (!opt_.tuning.lock_edges) return;
  on_lock_event(f, lock, false);
}

void OracleDetector::on_spawn_return(rt::Worker&, rt::TaskFrame& child,
                                     bool stolen) {
  PINT_CHECK_MSG(!stolen, "oracle must run on one worker");
  clear_range(child.fiber->stack_lo(), child.fiber->stack_hi() - 1);
}

void OracleDetector::on_continuation(rt::Worker&, rt::TaskFrame& parent, bool) {
  parent.det_strand = parent.det_cont;
  parent.det_cont = nullptr;
}

void OracleDetector::on_after_sync(rt::Worker&, rt::TaskFrame& f,
                                   rt::SyncBlock& blk, bool) {
  auto* j = static_cast<StrandInfo*>(blk.det_sync);
  if (j == nullptr) return;
  f.det_strand = j;
  blk.det_sync = nullptr;
}

detect::RunResult OracleDetector::run(std::function<void()> fn) {
  PINT_CHECK_MSG(!used_, "OracleDetector instances are single-use");
  used_ = true;
  opt_.tuning.apply_globals();
  rt::Scheduler::Options so;
  so.workers = 1;
  so.hooks = this;
  so.stack_bytes = opt_.stack_bytes;
  rt::Scheduler sched(so);
  detect::set_active_detector(this);
  Timer total;
  sched.run([&] { fn(); });
  stats_.total_ns.store(total.elapsed_ns());
  stats_.core_ns.store(total.elapsed_ns());
  stats_.strands.store(next_sid_);
  detect::set_active_detector(nullptr);
  return {};
}

}  // namespace pint::oracle
