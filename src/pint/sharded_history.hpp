#pragma once

// Sharded access history - this repository's implementation of the paper's
// §VI future-work direction: "parallelize the treap accesses since they are
// increasingly more likely to become the bottleneck".
//
// Instead of one worker per ROLE (writer / left-most / right-most), N
// history workers each own all three stores for a disjoint ADDRESS STRIPE
// set (64 KiB stripes, round-robin).  Every worker consumes the same
// access-history queue in the same DAG-conforming order and applies only
// the pieces of each interval that fall into its stripes.
//
// Soundness: each byte belongs to exactly one shard, whose worker maintains
// the full (last-writer, left-most-reader, right-most-reader) summary for
// it and observes all strands in the single global order - so per byte the
// algorithm is literally the original one, and Theorem 5's argument applies
// shard-by-shard.  No synchronization between shards is ever needed; the
// only cost is that a large interval is processed as one piece per stripe
// it spans (still ~8000x coarser than per-granule work).

#include <cstdint>
#include <vector>

#include "detect/history.hpp"
#include "reach/depa.hpp"
#include "support/assert.hpp"
#include "support/timer.hpp"
#include "store/interval_store.hpp"

namespace pint::pintd {

/// Stripe size: big enough that treap operations stay coarse, small enough
/// that a benchmark's working set spreads across shards.
constexpr std::uint64_t kShardStripeBytes = std::uint64_t(1) << 16;

/// Invokes fn(piece_lo, piece_hi) for the parts of [lo, hi] whose stripe
/// index maps to `shard` (stripe_index % nshards == shard).
///
/// Written to be overflow-proof over the full addr_t domain, including
/// intervals that touch the last stripe (hi == addr_t max):
///  * the stripe's top byte is `slo | (stripe_size-1)` - an OR can't wrap,
///    unlike `slo + stripe_size - 1`;
///  * the loop exits by comparing the CURRENT stripe against the last one
///    before incrementing, so `++stripe` never wraps past the final stripe.
template <class F>
inline void for_shard_pieces(detect::addr_t lo, detect::addr_t hi, int shard,
                             int nshards, F&& fn) {
  PINT_ASSERT(lo <= hi);
  const std::uint64_t last = hi / kShardStripeBytes;
  for (std::uint64_t stripe = lo / kShardStripeBytes;; ++stripe) {
    if (int(stripe % std::uint64_t(nshards)) == shard) {
      const detect::addr_t slo = stripe * kShardStripeBytes;
      const detect::addr_t shi = slo | (kShardStripeBytes - 1);
      fn(lo > slo ? lo : slo, hi < shi ? hi : shi);
    }
    if (stripe == last) break;
  }
}

/// One history shard: the full three-store summary for its stripes.
struct HistoryShard {
  store::IntervalStore writer;
  store::IntervalStore lreader;
  store::IntervalStore rreader;
  StopwatchAccum watch;
  // precedes() memo - touched only by this shard's worker thread, like the
  // stores above.  Counters summed into Stats at run end (quiescence).
  reach::Engine::Memo memo;

  /// Applies one strand record to this shard (reads checked then inserted,
  /// writes checked against all three stores then inserted, clears/frees
  /// erased) - the same order as the three dedicated workers use, restricted
  /// to this shard's stripes.
  ///
  /// Bulk path (DESIGN.md §10): a canonical record list's shard pieces -
  /// sorted pieces of sorted disjoint intervals - form one sorted disjoint
  /// run, so each store takes ONE *_run call per phase instead of one
  /// operation per piece.  The race-report SET is unchanged (queries don't
  /// mutate and the per-store event sequences are identical); only the
  /// interleaving of the three stores' reports within a strand moves.
  void process(const detect::Strand& s, int shard, int nshards,
               reach::Engine& reach, detect::RaceReporter& rep,
               detect::Stats& stats, bool use_memo = true) {
    using detect::ReaderSide;
    const store::Accessor me = detect::accessor_of(s);
    const bool bulk = detect::bulk_apply();
    reach::Engine::Memo* const mm = use_memo ? &memo : nullptr;

    if (bulk && s.reads.canonical()) {
      gather_pieces(s.reads.items(), shard, nshards);
      if (!run_buf_.empty()) {
        detect::note_bulk_run(stats, run_buf_.size());
        writer.query_run(run_buf_.data(), run_buf_.size(),
                         detect::make_conflict_cb(me, true, false, reach, rep,
                                                  stats, mm));
      }
    } else {
      for (const detect::Interval& r : s.reads.items()) {
        for_shard_pieces(r.lo, r.hi, shard, nshards, [&](auto lo, auto hi) {
          writer.query(lo, hi, detect::make_conflict_cb(me, true, false, reach,
                                                        rep, stats, mm));
        });
      }
    }
    if (bulk && s.writes.canonical()) {
      gather_pieces(s.writes.items(), shard, nshards);
      if (!run_buf_.empty()) {
        detect::note_bulk_run(stats, run_buf_.size() * 3);
        lreader.query_run(run_buf_.data(), run_buf_.size(),
                          detect::make_conflict_cb(me, false, true, reach, rep,
                                                   stats, mm));
        rreader.query_run(run_buf_.data(), run_buf_.size(),
                          detect::make_conflict_cb(me, false, true, reach, rep,
                                                   stats, mm));
        writer.insert_writer_run(run_buf_.data(), run_buf_.size(), me,
                                 detect::make_conflict_cb(me, true, true, reach,
                                                          rep, stats, mm));
      }
    } else {
      for (const detect::Interval& w : s.writes.items()) {
        for_shard_pieces(w.lo, w.hi, shard, nshards, [&](auto lo, auto hi) {
          lreader.query(lo, hi, detect::make_conflict_cb(me, false, true, reach,
                                                         rep, stats, mm));
          rreader.query(lo, hi, detect::make_conflict_cb(me, false, true, reach,
                                                         rep, stats, mm));
          writer.insert_writer(lo, hi, me,
                               detect::make_conflict_cb(me, true, true, reach,
                                                        rep, stats, mm));
        });
      }
    }
    const auto lresolve = detect::make_reader_resolver(
        me, reach, stats, ReaderSide::kLeftMost, mm);
    const auto rresolve = detect::make_reader_resolver(
        me, reach, stats, ReaderSide::kRightMost, mm);
    if (bulk && s.reads.canonical()) {
      gather_pieces(s.reads.items(), shard, nshards);
      if (!run_buf_.empty()) {
        detect::note_bulk_run(stats, run_buf_.size() * 2);
        lreader.insert_reader_run(run_buf_.data(), run_buf_.size(), me,
                                  lresolve);
        rreader.insert_reader_run(run_buf_.data(), run_buf_.size(), me,
                                  rresolve);
      }
    } else {
      for (const detect::Interval& r : s.reads.items()) {
        for_shard_pieces(r.lo, r.hi, shard, nshards, [&](auto lo, auto hi) {
          lreader.insert_reader(lo, hi, me, lresolve);
          rreader.insert_reader(lo, hi, me, rresolve);
        });
      }
    }
    // One interval's shard pieces are always a sorted disjoint run, so the
    // clears/frees (arbitrary-order lists) erase one run per interval.
    for (const detect::Interval& c : s.clears) erase_pieces(c.lo, c.hi, shard, nshards, bulk);
    for (const detect::HeapFree& f : s.frees) erase_pieces(f.lo, f.hi, shard, nshards, bulk);
  }

 private:
  /// Collects this shard's pieces of every interval in the (canonical) list
  /// into run_buf_.  Piece order within an interval is ascending and the
  /// intervals are sorted and disjoint, so the concatenation is one sorted
  /// disjoint run.
  template <class List>
  void gather_pieces(const List& items, int shard, int nshards) {
    run_buf_.clear();
    for (const auto& it : items) {
      for_shard_pieces(it.lo, it.hi, shard, nshards, [&](auto lo, auto hi) {
        run_buf_.push_back({lo, hi});
      });
    }
  }

  void erase_pieces(detect::addr_t lo, detect::addr_t hi, int shard,
                    int nshards, bool bulk) {
    if (bulk) {
      run_buf_.clear();
      for_shard_pieces(lo, hi, shard, nshards, [&](auto plo, auto phi) {
        run_buf_.push_back({plo, phi});
      });
      if (run_buf_.empty()) return;
      writer.erase_run(run_buf_.data(), run_buf_.size());
      lreader.erase_run(run_buf_.data(), run_buf_.size());
      rreader.erase_run(run_buf_.data(), run_buf_.size());
    } else {
      for_shard_pieces(lo, hi, shard, nshards, [&](auto plo, auto phi) {
        writer.erase_range(plo, phi);
        lreader.erase_range(plo, phi);
        rreader.erase_range(plo, phi);
      });
    }
  }

  std::vector<detect::Interval> run_buf_;  // shard-worker private scratch
};

}  // namespace pint::pintd
