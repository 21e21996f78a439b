#pragma once

// Shared access-history processing: how one strand record is applied to a
// writer / reader interval store (the paper's treaps; DESIGN.md §15).  Used
// by PINT's two history workers and by STINT's synchronous processing - the
// semantics are identical, only *when* and *on which thread* they run
// differs (paper §III-A).

#include <atomic>
#include <type_traits>
#include <utility>

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

/// One sub-record's accessor: the strand's identity, the sub-record's
/// lockset.
inline store::Accessor accessor_of(const Strand& s, const LockRecord& r) {
  return {s.label, s.sid, s.tag, r.lsid};
}

// HistoryKind (treap vs granule-map store) lives in detect/types.hpp so the
// ablation knob is nameable without this header's treap dependency.
//
// Stores hold handles (DESIGN.md §15.2).  The callbacks and resolvers below
// read the stored accessors from the store's table `tab`; a resolver also
// takes me's handle in that table, since it returns handles.

/// Overlap callback shared by every checking path: report a race when a
/// prior accessor of the overlapped segment is parallel to `me` and the two
/// records held no common lock (epoch×lockset filtering, DESIGN.md §12).
/// `me` is captured by value; table/engine/reporter/stats by reference.
/// `memo` (optional) is the calling history worker's private precedes()
/// cache.
inline auto make_conflict_cb(const store::AccessorTable& tab,
                             store::Accessor me, bool prev_write,
                             bool cur_write, reach::Engine& reach,
                             RaceReporter& rep, Stats& stats,
                             reach::Engine::Memo* memo = nullptr) {
  return [&tab, me, prev_write, cur_write, &reach, &rep, &stats, memo](
             addr_t lo, addr_t hi, store::Handle h) {
    const store::Accessor& prev = tab[h];
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
/// its own, and once when both slots hold the same sub-record.
inline auto make_reader_conflict_cb(const store::AccessorTable& tab,
                                    store::Accessor me, reach::Engine& reach,
                                    RaceReporter& rep, Stats& stats,
                                    reach::Engine::Memo* memo = nullptr) {
  return [check = make_conflict_cb(tab, me, false, true, reach, rep, stats,
                                   memo)](addr_t lo, addr_t hi,
                                          const store::ReaderPair& prev) {
    check(lo, hi, prev.left);
    if (prev.right != prev.left) check(lo, hi, prev.right);
  };
}

// A strand's sub-records are applied one after another, each as its own
// accessor (same sid, its own lsid), in non-increasing lockset size.  So a
// stored reader with me's sid is an earlier sub-record of the same strand,
// under a lockset at least as large: the resolvers below let the incoming
// one, the weaker, take its place without a reachability query.

/// Serial (STINT) reader retention, the Feng-Leiserson rule: the new reader
/// wins only when it is in series after the stored one.
inline auto make_serial_resolver(const store::AccessorTable& tab,
                                 store::Handle me, reach::Engine& reach,
                                 Stats& stats,
                                 reach::Engine::Memo* memo = nullptr) {
  return [&tab, me, &reach, &stats, memo](store::Handle prev, store::Handle) {
    const store::Accessor& p = tab[prev];
    const store::Accessor& m = tab[me];
    if (p.sid == m.sid) return me;  // same strand: the weaker lockset
    stats.reach_queries.fetch_add(1, std::memory_order_relaxed);
    const reach::Relation r = reach.relation(p.label, m.label, memo);
    return r.eng && r.heb ? me : prev;  // prev ~> me
  };
}

/// Two-sided reader retention: each slot follows its own reader treap's
/// rule.  The new reader wins a slot when it is in series after the slot's
/// reader, or lies further left (left slot) / right (right slot) in English
/// order (stored readers never succeed `me`: processing is DAG-conforming).
/// One Relation answers both (left_of(me, prev) is the negated English bit),
/// so slots holding one strand cost one query.  A slot holding another
/// sub-record of me's strand takes me, with no query; when both do, the
/// right slot takes the left one's record instead, so the pair keeps the
/// strand's two last-applied (least-guarded) sub-records.
inline auto make_reader_resolver(const store::AccessorTable& tab,
                                 store::Handle me, reach::Engine& reach,
                                 Stats& stats,
                                 reach::Engine::Memo* memo = nullptr) {
  return [&tab, me, &reach, &stats, memo](const store::ReaderPair& prev,
                                          const store::ReaderPair&) {
    const store::Accessor& m = tab[me];
    auto relation = [&](const store::Accessor& a) {
      stats.reach_queries.fetch_add(1, std::memory_order_relaxed);
      return reach.relation(a.label, m.label, memo);
    };
    const store::Accessor& left = tab[prev.left];
    store::ReaderPair out = prev;
    reach::Relation r{};
    if (left.sid == m.sid) {
      out.left = me;
    } else {
      r = relation(left);
      if (!r.eng || r.heb) out.left = me;  // prev ~> me, or me left of prev
    }
    const store::Accessor& right = tab[prev.right];
    if (right.sid == m.sid) {
      // Both slots holding me's strand keep its last two sub-records.
      out.right = left.sid == m.sid ? prev.left : me;
    } else {
      if (right.sid != left.sid) r = relation(right);
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
/// proof), then clears applied.  Each pass walks the strand's sub-records
/// in apply order, so the last writer kept is the least-guarded one.
/// Works with any store exposing the query/insert_writer/insert_reader/
/// erase_range interface of store::IntervalStore.
template <class History>
inline void process_writer_treap(History& t, const Strand& s,
                                 reach::Engine& reach, RaceReporter& rep,
                                 Stats& stats,
                                 reach::Engine::Memo* memo = nullptr) {
  s.for_each_record([&](const LockRecord& r) {
    const auto on_read = make_conflict_cb(t.table(), accessor_of(s, r), true,
                                          false, reach, rep, stats, memo);
    for_each_run(r.reads, stats, [&](const Interval* iv, std::size_t k) {
      t.query_run(iv, k, on_read);
    });
  });
  s.for_each_record([&](const LockRecord& r) {
    if (r.writes.items().empty()) return;
    const store::Accessor me = accessor_of(s, r);
    const store::Handle h = t.intern(me);
    const auto on_write = make_conflict_cb(t.table(), me, true, true, reach,
                                           rep, stats, memo);
    for_each_run(r.writes, stats, [&](const Interval* iv, std::size_t k) {
      t.insert_writer_run(iv, k, h, on_write);
    });
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
  constexpr bool kTwoSided =
      std::is_same_v<typename History::Payload, store::ReaderPair>;
  s.for_each_record([&](const LockRecord& r) {
    const store::Accessor me = accessor_of(s, r);
    const auto check = [&] {
      if constexpr (kTwoSided) {
        return make_reader_conflict_cb(t.table(), me, reach, rep, stats,
                                       memo);
      } else {
        return make_conflict_cb(t.table(), me, false, true, reach, rep, stats,
                                memo);
      }
    }();
    for_each_run(r.writes, stats, [&](const Interval* iv, std::size_t k) {
      t.query_run(iv, k, check);
    });
  });
  s.for_each_record([&](const LockRecord& r) {
    if (r.reads.items().empty()) return;
    const store::Handle me = t.intern(accessor_of(s, r));
    const auto [fresh, resolve] = [&] {
      if constexpr (kTwoSided) {
        return std::pair{store::ReaderPair{me, me},
                         make_reader_resolver(t.table(), me, reach, stats,
                                              memo)};
      } else {
        return std::pair{me, make_serial_resolver(t.table(), me, reach, stats,
                                                  memo)};
      }
    }();
    for_each_run(r.reads, stats, [&](const Interval* iv, std::size_t k) {
      t.insert_reader_run(iv, k, fresh, resolve);
    });
  });
  for (const Interval& c : s.clears) t.erase_range(c.lo, c.hi);
  for (const HeapFree& f : s.frees) t.erase_range(f.lo, f.hi);
}

}  // namespace pint::detect
