#pragma once

// Shared access-history processing: how one strand record is applied to a
// writer / reader interval store (the paper's treaps; DESIGN.md §15).  Used
// by all three of PINT's treap workers and by STINT's synchronous
// processing - the semantics are identical, only *when* and *on which
// thread* they run differs (paper §III-A).

#include <atomic>

#include "detect/granule_map.hpp"
#include "detect/lockset.hpp"
#include "detect/report.hpp"
#include "detect/stats.hpp"
#include "detect/strand.hpp"
#include "reach/depa.hpp"
#include "store/interval_store.hpp"

namespace pint::detect {

// ---------------------------------------------------------------------------
// Bulk-run knob (DESIGN.md §10)
// ---------------------------------------------------------------------------
//
// When on (the default), a strand whose record list is canonical (sorted +
// disjoint, see AccessBuffer::canonical) is applied through the stores' bulk
// *_run API - one amortized carve per list instead of one root walk per
// interval.  The callback/resolver sequence is identical either way, so race
// reports are bit-identical; the equivalence suite (tests/test_bulk_apply)
// flips this off to prove it.  Same global-knob shape as
// set_access_fast_path: flip only while no detector is running.

inline std::atomic<bool>& bulk_apply_knob() {
  static std::atomic<bool> on{true};
  return on;
}
inline void set_bulk_apply(bool on) {
  bulk_apply_knob().store(on, std::memory_order_relaxed);
}
inline bool bulk_apply() {
  return bulk_apply_knob().load(std::memory_order_relaxed);
}

/// One *_run call of k intervals issued to a history store.
inline void note_bulk_run(Stats& stats, std::size_t k) {
  stats.bulk_runs.fetch_add(1, std::memory_order_relaxed);
  stats.bulk_run_intervals.fetch_add(k, std::memory_order_relaxed);
}

/// Which reader the reader treap retains for each interval.
enum class ReaderSide {
  kLeftMost,   // parallel detection: first in English order
  kRightMost,  // parallel detection: last in English order
  kSerial,     // serial detection (STINT): replace only when in series
};

inline store::Accessor accessor_of(const Strand& s) {
  return {s.label, s.sid, s.tag, s.lsid};
}

// HistoryKind (treap vs granule-map store) lives in detect/types.hpp so the
// ablation knob is nameable without this header's treap dependency.

/// Overlap callback shared by every checking path: report a race when a
/// prior accessor of the overlapped segment is parallel to `me` and the two
/// segments held no common lock (epoch×lockset filtering, DESIGN.md §12).
/// `me` is captured by value; engine/reporter/stats by reference.  `memo`
/// (optional) is the calling history worker's private precedes() cache.
inline auto make_conflict_cb(store::Accessor me, bool prev_write,
                             bool cur_write, reach::Engine& reach,
                             RaceReporter& rep, Stats& stats,
                             reach::Engine::Memo* memo = nullptr) {
  return [me, prev_write, cur_write, &reach, &rep, &stats, memo](
             addr_t lo, addr_t hi, const store::Accessor& prev) {
    if (prev.sid == me.sid) return;  // a strand cannot race with itself
    if (locksets_share(prev.lsid, me.lsid)) return;  // common mutex held
    stats.reach_queries.fetch_add(1, std::memory_order_relaxed);
    if (reach.parallel(prev.label, me.label, memo)) {
      rep.report(prev.sid, prev_write, me.sid, cur_write, lo, hi, prev.tag,
                 me.tag);
    }
  };
}

/// Reader-retention rule shared by reader inserts: the new reader wins when
/// it is in series after the stored one, or is the side's extreme among
/// parallel readers (stored readers are never DAG-successors of `me` thanks
/// to DAG-conforming processing).  One Relation answers series-ness AND the
/// left/right tiebreak (left_of(me, prev) is the negated English bit), so
/// the memo pays off even on the resolver path.
inline auto make_reader_resolver(store::Accessor me, reach::Engine& reach,
                                 Stats& stats, ReaderSide side,
                                 reach::Engine::Memo* memo = nullptr) {
  return [me, &reach, &stats, side, memo](const store::Accessor& prev,
                                          const store::Accessor& cur) {
    (void)cur;
    if (prev.sid == me.sid) return false;
    stats.reach_queries.fetch_add(1, std::memory_order_relaxed);
    const reach::Relation r = reach.relation(prev.label, me.label, memo);
    if (r.eng && r.heb) return true;  // prev ~> me
    switch (side) {
      case ReaderSide::kLeftMost:
        return !r.eng;  // left_of(me, prev): me first in English order
      case ReaderSide::kRightMost:
        return r.eng;  // left_of(prev, me)
      case ReaderSide::kSerial:
        return false;  // Feng-Leiserson rule: keep the old parallel reader
    }
    return false;
  };
}

/// Reads checked against the last-writer history, then writes checked
/// against and inserted into it (query-before-insert, per Theorem 5's
/// proof), then clears applied. Works with any store exposing the
/// query/insert_writer/insert_reader/erase_range interface of
/// store::IntervalStore.
template <class History>
inline void process_writer_treap(History& t, const Strand& s,
                                 reach::Engine& reach, RaceReporter& rep,
                                 Stats& stats,
                                 reach::Engine::Memo* memo = nullptr) {
  const store::Accessor me = accessor_of(s);
  const bool bulk = bulk_apply();
  const auto& reads = s.reads.items();
  if (bulk && s.reads.canonical() && !reads.empty()) {
    note_bulk_run(stats, reads.size());
    t.query_run(reads.data(), reads.size(),
                make_conflict_cb(me, true, false, reach, rep, stats, memo));
  } else {
    for (const Interval& r : reads) {
      t.query(r.lo, r.hi,
              make_conflict_cb(me, true, false, reach, rep, stats, memo));
    }
  }
  const auto& writes = s.writes.items();
  if (bulk && s.writes.canonical() && !writes.empty()) {
    note_bulk_run(stats, writes.size());
    t.insert_writer_run(
        writes.data(), writes.size(), me,
        make_conflict_cb(me, true, true, reach, rep, stats, memo));
  } else {
    for (const Interval& w : writes) {
      t.insert_writer(
          w.lo, w.hi, me,
          make_conflict_cb(me, true, true, reach, rep, stats, memo));
    }
  }
  for (const Interval& c : s.clears) t.erase_range(c.lo, c.hi);
  for (const HeapFree& f : s.frees) t.erase_range(f.lo, f.hi);
}

/// Writes checked against the reader history, then reads inserted with the
/// side's retention rule, then clears applied.
template <class History>
inline void process_reader_treap(History& t, const Strand& s,
                                 reach::Engine& reach, RaceReporter& rep,
                                 Stats& stats, ReaderSide side,
                                 reach::Engine::Memo* memo = nullptr) {
  const store::Accessor me = accessor_of(s);
  const bool bulk = bulk_apply();
  const auto& writes = s.writes.items();
  if (bulk && s.writes.canonical() && !writes.empty()) {
    note_bulk_run(stats, writes.size());
    t.query_run(writes.data(), writes.size(),
                make_conflict_cb(me, false, true, reach, rep, stats, memo));
  } else {
    for (const Interval& w : writes) {
      t.query(w.lo, w.hi,
              make_conflict_cb(me, false, true, reach, rep, stats, memo));
    }
  }
  const auto resolve = make_reader_resolver(me, reach, stats, side, memo);
  const auto& reads = s.reads.items();
  if (bulk && s.reads.canonical() && !reads.empty()) {
    note_bulk_run(stats, reads.size());
    t.insert_reader_run(reads.data(), reads.size(), me, resolve);
  } else {
    for (const Interval& r : reads) {
      t.insert_reader(r.lo, r.hi, me, resolve);
    }
  }
  for (const Interval& c : s.clears) t.erase_range(c.lo, c.hi);
  for (const HeapFree& f : s.frees) t.erase_range(f.lo, f.hi);
}

}  // namespace pint::detect
