#pragma once

// Sharded access history - this repository's implementation of the paper's
// §VI future-work direction: "parallelize the treap accesses since they are
// increasingly more likely to become the bottleneck".
//
// Instead of one worker per ROLE (writer / two-sided reader), N history
// workers each own both stores for a disjoint ADDRESS STRIPE set (64 KiB
// stripes, round-robin).  Every worker consumes the same
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
#include <memory>
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

/// One history shard: the full writer + reader summary for its stripes.
struct HistoryShard {
  store::IntervalStore writer;
  store::ReaderStore reader;
  StopwatchAccum watch;
  // precedes() memo (null with tuning.memo off) - touched only by this
  // shard's worker thread, like the stores above.  Counters summed into
  // Stats at run end (quiescence).
  std::unique_ptr<reach::Engine::Memo> memo;

  explicit HistoryShard(bool use_memo = true) {
    if (use_memo) memo = std::make_unique<reach::Engine::Memo>();
  }

  /// Applies one strand record to this shard (reads checked then inserted,
  /// writes checked against both stores then inserted, clears/frees erased)
  /// - the same order as the two dedicated workers use, each pass over the
  /// strand's sub-records in apply order, restricted to this shard's
  /// stripes.  A sub-record is interned into a store at its first piece run
  /// there; its later runs reuse that entry (AccessorTable::intern).
  ///
  /// Bulk path (DESIGN.md §10): a canonical record list's shard pieces -
  /// sorted pieces of sorted disjoint intervals - form one sorted disjoint
  /// run, so each store takes ONE *_run call per phase instead of one
  /// operation per piece.  The race-report SET is unchanged (queries don't
  /// mutate and the per-store event sequences are identical); only the
  /// interleaving of the two stores' reports within a strand moves.
  void process(const detect::Strand& s, int shard, int nshards,
               reach::Engine& reach, detect::RaceReporter& rep,
               detect::Stats& stats) {
    using detect::Interval;
    using detect::LockRecord;
    reach::Engine::Memo* const mm = memo.get();
    s.for_each_record([&](const LockRecord& r) {
      const auto on_read =
          detect::make_conflict_cb(writer.table(), detect::accessor_of(s, r),
                                   true, false, reach, rep, stats, mm);
      for_each_piece_run(r.reads, shard, nshards, stats, 1,
                         [&](const Interval* iv, std::size_t k) {
                           writer.query_run(iv, k, on_read);
                         });
    });
    s.for_each_record([&](const LockRecord& r) {
      const store::Accessor me = detect::accessor_of(s, r);
      const auto on_write_reader = detect::make_reader_conflict_cb(
          reader.table(), me, reach, rep, stats, mm);
      const auto on_write = detect::make_conflict_cb(writer.table(), me, true,
                                                     true, reach, rep, stats,
                                                     mm);
      for_each_piece_run(r.writes, shard, nshards, stats, 2,
                         [&](const Interval* iv, std::size_t k) {
                           reader.query_run(iv, k, on_write_reader);
                           writer.insert_writer_run(iv, k, writer.intern(me),
                                                    on_write);
                         });
    });
    s.for_each_record([&](const LockRecord& r) {
      const store::Accessor me = detect::accessor_of(s, r);
      for_each_piece_run(r.reads, shard, nshards, stats, 1,
                         [&](const Interval* iv, std::size_t k) {
                           const store::Handle h = reader.intern(me);
                           reader.insert_reader_run(
                               iv, k, store::ReaderPair{h, h},
                               detect::make_reader_resolver(
                                   reader.table(), h, reach, stats, mm));
                         });
    });
    // One interval's shard pieces are always a sorted disjoint run, so the
    // clears/frees (arbitrary-order lists) erase one run per interval.
    auto erase = [&](const Interval* iv, std::size_t k) {
      writer.erase_run(iv, k);
      reader.erase_run(iv, k);
    };
    for (const Interval& c : s.clears) {
      gather_pieces(&c, 1, shard, nshards);
      apply_pieces(detect::bulk_apply(), erase);
    }
    for (const detect::HeapFree& f : s.frees) {
      const Interval freed{f.lo, f.hi};
      gather_pieces(&freed, 1, shard, nshards);
      apply_pieces(detect::bulk_apply(), erase);
    }
  }

 private:
  /// Collects this shard's pieces of iv[0, n) into run_buf_.  Piece order
  /// within an interval is ascending, so for a canonical (sorted, disjoint)
  /// list the concatenation is one sorted disjoint run.
  void gather_pieces(const detect::Interval* iv, std::size_t n, int shard,
                     int nshards) {
    run_buf_.clear();
    for (std::size_t j = 0; j < n; ++j) {
      for_shard_pieces(iv[j].lo, iv[j].hi, shard, nshards,
                       [&](auto lo, auto hi) { run_buf_.push_back({lo, hi}); });
    }
  }

  /// Hands run_buf_ to run(pieces, k): whole, or one piece at a time.
  template <class Run>
  void apply_pieces(bool as_run, Run&& run) {
    if (as_run) {
      run(run_buf_.data(), run_buf_.size());
    } else {
      for (const detect::Interval& p : run_buf_) run(&p, 1);
    }
  }

  /// This shard's pieces of a record list, as one run per `stores` store
  /// when bulk apply is on and the list is canonical, else piece by piece.
  template <class Run>
  void for_each_piece_run(const detect::AccessBuffer& buf, int shard,
                          int nshards, detect::Stats& stats,
                          std::size_t stores, Run&& run) {
    gather_pieces(buf.items().data(), buf.items().size(), shard, nshards);
    if (run_buf_.empty()) return;
    const bool as_run = detect::bulk_apply() && buf.canonical();
    if (as_run) detect::note_bulk_run(stats, run_buf_.size() * stores);
    apply_pieces(as_run, run);
  }

  std::vector<detect::Interval> run_buf_;  // shard-worker private scratch
};

}  // namespace pint::pintd
