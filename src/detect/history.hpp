#pragma once

// Shared access-history processing: how one strand record is applied to a
// writer / reader interval store (the paper's treaps; DESIGN.md §15).  Used
// by PINT's two history workers and by STINT's synchronous processing - the
// semantics are identical, only *when* and *on which thread* they run
// differs (paper §III-A).

#include <atomic>
#include <tuple>
#include <type_traits>

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

/// Write check against the two-sided reader store: each slot is checked on
/// its own, and once when both slots hold the same strand.
inline auto make_reader_conflict_cb(store::Accessor me, reach::Engine& reach,
                                    RaceReporter& rep, Stats& stats,
                                    reach::Engine::Memo* memo = nullptr) {
  return [check = make_conflict_cb(me, false, true, reach, rep, stats, memo)](
             addr_t lo, addr_t hi, const store::ReaderPair& prev) {
    check(lo, hi, prev.left);
    if (prev.right.sid != prev.left.sid) check(lo, hi, prev.right);
  };
}

/// Serial (STINT) reader retention, the Feng-Leiserson rule: the new reader
/// wins only when it is in series after the stored one.
inline auto make_serial_resolver(store::Accessor me, reach::Engine& reach,
                                 Stats& stats,
                                 reach::Engine::Memo* memo = nullptr) {
  return [me, &reach, &stats, memo](const store::Accessor& prev,
                                    const store::Accessor&) {
    if (prev.sid == me.sid) return prev;
    stats.reach_queries.fetch_add(1, std::memory_order_relaxed);
    const reach::Relation r = reach.relation(prev.label, me.label, memo);
    return r.eng && r.heb ? me : prev;  // prev ~> me
  };
}

/// Two-sided reader retention: each slot follows its own reader treap's
/// rule.  The new reader wins a slot when it is in series after the slot's
/// reader, or lies further left (left slot) / right (right slot) in English
/// order (stored readers never succeed `me`: processing is DAG-conforming).
/// One Relation answers both (left_of(me, prev) is the negated English bit),
/// so slots holding one strand cost one query.
inline auto make_reader_resolver(store::Accessor me, reach::Engine& reach,
                                 Stats& stats,
                                 reach::Engine::Memo* memo = nullptr) {
  return [me, &reach, &stats, memo](const store::ReaderPair& prev,
                                    const store::ReaderPair&) {
    auto relation = [&](const store::Accessor& a) {
      stats.reach_queries.fetch_add(1, std::memory_order_relaxed);
      return reach.relation(a.label, me.label, memo);
    };
    store::ReaderPair out = prev;
    reach::Relation r{};
    if (prev.left.sid != me.sid) {
      r = relation(prev.left);
      if (!r.eng || r.heb) out.left = me;  // prev ~> me, or me left of prev
    }
    if (prev.right.sid != me.sid) {
      if (prev.right.sid != prev.left.sid) r = relation(prev.right);
      if (r.eng) out.right = me;  // prev ~> me, or prev left of me
    }
    return out;
  };
}

/// Hands a record list to run(intervals, k): as one sorted run when bulk
/// apply is on and the list is canonical, else one interval at a time.
template <class Run>
inline void for_each_run(const AccessBuffer& buf, Stats& stats, Run&& run) {
  const auto& items = buf.items();
  if (items.empty()) return;
  if (bulk_apply() && buf.canonical()) {
    note_bulk_run(stats, items.size());
    run(items.data(), items.size());
  } else {
    for (const Interval& iv : items) run(&iv, 1);
  }
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
  const auto on_read = make_conflict_cb(me, true, false, reach, rep, stats,
                                        memo);
  for_each_run(s.reads, stats, [&](const Interval* iv, std::size_t k) {
    t.query_run(iv, k, on_read);
  });
  const auto on_write = make_conflict_cb(me, true, true, reach, rep, stats,
                                         memo);
  for_each_run(s.writes, stats, [&](const Interval* iv, std::size_t k) {
    t.insert_writer_run(iv, k, me, on_write);
  });
  for (const Interval& c : s.clears) t.erase_range(c.lo, c.hi);
  for (const HeapFree& f : s.frees) t.erase_range(f.lo, f.hi);
}

/// Writes checked against the reader history, then reads inserted with its
/// retention rule, then clears applied.  The store's payload picks the rule:
/// a ReaderPair store keeps both extremes (PINT), a one-sided store keeps
/// the serial reader (STINT).
template <class History>
inline void process_reader_treap(History& t, const Strand& s,
                                 reach::Engine& reach, RaceReporter& rep,
                                 Stats& stats,
                                 reach::Engine::Memo* memo = nullptr) {
  const store::Accessor me = accessor_of(s);
  const auto [check, fresh, resolve] = [&] {
    if constexpr (std::is_same_v<typename History::Payload,
                                 store::ReaderPair>) {
      return std::tuple{make_reader_conflict_cb(me, reach, rep, stats, memo),
                        store::ReaderPair{me, me},
                        make_reader_resolver(me, reach, stats, memo)};
    } else {
      return std::tuple{
          make_conflict_cb(me, false, true, reach, rep, stats, memo), me,
          make_serial_resolver(me, reach, stats, memo)};
    }
  }();
  for_each_run(s.writes, stats, [&](const Interval* iv, std::size_t k) {
    t.query_run(iv, k, check);
  });
  for_each_run(s.reads, stats, [&](const Interval* iv, std::size_t k) {
    t.insert_reader_run(iv, k, fresh, resolve);
  });
  for (const Interval& c : s.clears) t.erase_range(c.lo, c.hi);
  for (const HeapFree& f : s.frees) t.erase_range(f.lo, f.hi);
}

}  // namespace pint::detect
