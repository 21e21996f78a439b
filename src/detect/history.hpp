#pragma once

// Access-history semantics: the race check run on every overlapped stored
// segment and the reader retention rules, shared by every store and every
// schedule (the driver in detect/history_driver.hpp applies them; DESIGN.md
// §15 has the stores).

#include <atomic>

#include "detect/lockset.hpp"
#include "detect/report.hpp"
#include "detect/stats.hpp"
#include "detect/strand.hpp"
#include "reach/depa.hpp"
#include "store/interval_store.hpp"

namespace pint::detect {

/// One sub-record's accessor: the strand's identity, the sub-record's
/// lockset.
inline store::Accessor accessor_of(const Strand& s, const LockRecord& r) {
  return {s.label, s.sid, s.tag, r.lsid};
}

// Stores hold handles (DESIGN.md §15.2).  The callbacks and resolvers below
// read the stored accessors from the store's table `tab`; a resolver also
// takes me's handle in that table, since it returns handles.

/// Overlap callback shared by every checking path: report a race when a
/// prior accessor of the overlapped segment is parallel to `me` and the two
/// records held no common lock (epoch×lockset filtering, DESIGN.md §12).
/// `me` is captured by value; table/engine/reporter/stats by reference.
inline auto make_conflict_cb(const store::AccessorTable& tab,
                             store::Accessor me, bool prev_write,
                             bool cur_write, reach::Engine& reach,
                             RaceReporter& rep, Stats& stats) {
  return [&tab, me, prev_write, cur_write, &reach, &rep, &stats](
             addr_t lo, addr_t hi, store::Handle h) {
    const store::Accessor& prev = tab[h];
    if (prev.sid == me.sid) return;  // a strand cannot race with itself
    if (locksets_share(prev.lsid, me.lsid)) return;  // common mutex held
    stats.reach_queries.fetch_add(1, std::memory_order_relaxed);
    if (reach.parallel(prev.label, me.label)) {
      rep.report(prev.sid, prev_write, me.sid, cur_write, lo, hi, prev.tag,
                 me.tag);
    }
  };
}

/// Write check against the two-sided reader store: each slot is checked on
/// its own, and once when both slots hold the same sub-record.
inline auto make_reader_conflict_cb(const store::AccessorTable& tab,
                                    store::Accessor me, reach::Engine& reach,
                                    RaceReporter& rep, Stats& stats) {
  return [check = make_conflict_cb(tab, me, false, true, reach, rep, stats)](
             addr_t lo, addr_t hi, const store::ReaderPair& prev) {
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
                                 Stats& stats) {
  return [&tab, me, &reach, &stats](store::Handle prev, store::Handle) {
    const store::Accessor& p = tab[prev];
    const store::Accessor& m = tab[me];
    if (p.sid == m.sid) return me;  // same strand: the weaker lockset
    stats.reach_queries.fetch_add(1, std::memory_order_relaxed);
    const reach::Relation r = reach.relation(p.label, m.label);
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
                                 Stats& stats) {
  return [&tab, me, &reach, &stats](const store::ReaderPair& prev,
                                    const store::ReaderPair&) {
    const store::Accessor& m = tab[me];
    auto relation = [&](const store::Accessor& a) {
      stats.reach_queries.fetch_add(1, std::memory_order_relaxed);
      return reach.relation(a.label, m.label);
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

}  // namespace pint::detect
