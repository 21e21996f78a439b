#pragma once

// The history driver: the one place a sealed strand is applied to the
// access history (DESIGN.md §2.4, §10.2).  PINT runs STINT's history
// algorithm unchanged and only moves it onto other threads and changes
// when it runs (paper §III-A), so every schedule drives this one object
// and differs only in who calls it and when:
//
//   * STINT calls it inline at each strand's seal;
//   * phased PINT calls it after the run, on the calling thread;
//   * pipelined PINT calls it from the writer lane and the reader lane;
//   * sharded PINT calls it from lanes that each own one address stripe.
//
// The driver owns the store set - a writer store and a reader store per
// address stripe, each the interval store or the GranuleMap ablation - and
// applies the writer role, the reader role or both to one strand.  It is
// the only place that branches on HistoryKind, chooses what a lane's
// stopwatch brackets, opens the per-strand history spans and writes the
// lanes' busy time into Stats.  The reader payload picks the reader rule:
// ReaderPair keeps PINT's two extremes, Handle STINT's serial reader.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "detect/granule_map.hpp"
#include "detect/history.hpp"
#include "support/telemetry.hpp"
#include "support/timer.hpp"
#include "store/interval_store.hpp"

namespace pint::detect {

/// Stripe size of the sharded history: big enough that store operations
/// stay coarse, small enough that a working set spreads across shards.
constexpr std::uint64_t kShardStripeBytes = std::uint64_t(1) << 16;

/// Invokes fn(piece_lo, piece_hi) for the parts of [lo, hi] whose stripe
/// index maps to `shard` (stripe_index % nshards == shard), in ascending
/// order.
///
/// Written to be overflow-proof over the full addr_t domain, including
/// intervals that touch the last stripe (hi == addr_t max):
///  * the stripe's top byte is `slo | (stripe_size-1)` - an OR can't wrap,
///    unlike `slo + stripe_size - 1`;
///  * the loop exits by comparing the CURRENT stripe against the last one
///    before incrementing, so `++stripe` never wraps past the final stripe.
template <class F>
inline void for_shard_pieces(addr_t lo, addr_t hi, int shard, int nshards,
                             F&& fn) {
  PINT_ASSERT(lo <= hi);
  const std::uint64_t last = hi / kShardStripeBytes;
  for (std::uint64_t stripe = lo / kShardStripeBytes;; ++stripe) {
    if (int(stripe % std::uint64_t(nshards)) == shard) {
      const addr_t slo = stripe * kShardStripeBytes;
      const addr_t shi = slo | (kShardStripeBytes - 1);
      fn(lo > slo ? lo : slo, hi < shi ? hi : shi);
    }
    if (stripe == last) break;
  }
}

/// The store roles a lane applies to a strand.  Writer: reads checked
/// against the last-writer store, then writes checked against and inserted
/// into it.  Reader: writes checked against the reader store, then reads
/// inserted with its retention rule.  Each role then erases the strand's
/// stack clears and freed ranges from its store (paper §III-F).
enum Roles : std::uint8_t {
  kNoRoles = 0,
  kWriterRole = 1,
  kReaderRole = 2,
  kBothRoles = 3,
};

/// When the driver runs: inline at seal (STINT), in phases after the run
/// (phased PINT), or on concurrent lanes (pipelined and sharded PINT).
enum class Schedule : std::uint8_t { kInline, kPhased, kPipelined };

/// What a lane's stopwatch (CLOCK_THREAD_CPUTIME_ID, ~330 ns a read)
/// brackets.  Traced runs and STINT time each strand: the exported
/// *.strand span sums are documented to agree with the *_ns stats, which
/// needs both to bracket the same code.  Untraced PINT hoists the reads out
/// of the strand loop: a pipelined lane times each drained batch (a writer
/// scan that collected something, a consumer head snapshot), a phased lane
/// its whole phase.
enum class Watch : std::uint8_t { kStrand, kBatch, kPhase };

template <class P>
class HistoryDriver {
 public:
  /// One thread's share of the history work: the roles it applies, the
  /// stripe it applies them to, its span name and its busy time.  Lane 0
  /// is the writer lane (PINT's collector); lanes 1.. are the reader lane,
  /// or one lane per shard.
  struct alignas(64) Lane {
    Roles roles = kNoRoles;
    int stripe = 0;
    const char* span = nullptr;
    StopwatchAccum watch;
  };

  /// `shards` = 0: a writer lane and a reader lane over one store pair.
  /// N > 0: N stripe lanes, each applying both roles to the pieces of
  /// every interval in its stripes (64 KiB stripes, round-robin), beside a
  /// writer lane that applies none.
  HistoryDriver(HistoryKind kind, int shards, Schedule schedule,
                reach::Engine& reach, RaceReporter& rep, Stats& stats)
      : shards_(shards), reach_(reach), rep_(rep), stats_(stats) {
    PINT_CHECK_MSG(shards == 0 || kind == HistoryKind::kTreap,
                   "sharded history supports the treap store only");
    const bool stint = schedule == Schedule::kInline;
    const int nsets = shards == 0 ? 1 : shards;
    for (int k = 0; k < nsets; ++k) {
      if (kind == HistoryKind::kTreap) {
        treaps_.push_back(std::make_unique<TreapSet>());
      } else {
        maps_.push_back(std::make_unique<MapSet>());
      }
    }
    lanes_ = std::vector<Lane>(std::size_t(shards == 0 ? 2 : shards + 1));
    lanes_[0].span = stint ? "stint.writer" : "writer.strand";
    if (shards == 0) {
      lanes_[0].roles = kWriterRole;
      lanes_[1].roles = kReaderRole;
      lanes_[1].span = stint ? "stint.reader" : "reader.strand";
    }
    for (int k = 0; k < shards; ++k) {
      Lane& l = lanes_[std::size_t(k) + 1];
      l.roles = kBothRoles;
      l.stripe = k;
      l.span = "shard.strand";
    }
    set_schedule(schedule);
  }

  HistoryDriver(const HistoryDriver&) = delete;
  HistoryDriver& operator=(const HistoryDriver&) = delete;

  std::size_t lanes() const { return lanes_.size(); }
  Lane& lane(std::size_t i) { return lanes_[i]; }

  /// Picks the watch granularity for `s`.  Call at quiescence: before the
  /// lanes start, or on the one thread that runs the phases.
  void set_schedule(Schedule s) {
    watch_ = s == Schedule::kInline || telem::enabled() ? Watch::kStrand
             : s == Schedule::kPhased                   ? Watch::kPhase
                                                        : Watch::kBatch;
  }

  /// Bracket points of the callers' loops: each starts or stops the lane's
  /// stopwatch only when `w` is the granularity the schedule chose.
  void begin(Lane& l, Watch w) {
    if (watch_ == w) l.watch.start();
  }
  void end(Lane& l, Watch w) {
    if (watch_ == w) l.watch.stop();
  }

  /// Applies the lane's roles to s inside its per-strand span (nested just
  /// inside the watch, so the watch's clock reads stay out of the span).
  /// tail() runs inside both: the writer lane's deferred frees.
  template <class Tail>
  void strand(Lane& l, const Strand& s, Tail&& tail) {
    begin(l, Watch::kStrand);
    {
      PINT_TSPAN(l.span);
      apply(s, l.roles, l.stripe);
      tail();
    }
    end(l, Watch::kStrand);
  }
  void strand(Lane& l, const Strand& s) {
    strand(l, s, [] {});
  }

  /// Applies `roles` to s on `stripe`'s stores, on the calling thread.
  void apply(const Strand& s, Roles roles, int stripe) {
    if (!treaps_.empty()) {
      apply_to(*treaps_[std::size_t(stripe)], s, roles, stripe);
    } else {
      apply_to(*maps_[std::size_t(stripe)], s, roles, stripe);
    }
  }

  /// Lane busy time into Stats: writer_ns is the writer lane, lreader_ns
  /// the reader lane - or, sharded, the busiest shard lane with the shard
  /// total in rreader_ns.  Quiescence only.
  void fold(Stats& st) const {
    st.writer_ns.store(lanes_[0].watch.total_ns());
    if (shards_ == 0) {
      st.lreader_ns.store(lanes_[1].watch.total_ns());
      return;
    }
    std::uint64_t mx = 0, sum = 0;
    for (std::size_t i = 1; i < lanes_.size(); ++i) {
      mx = std::max(mx, lanes_[i].watch.total_ns());
      sum += lanes_[i].watch.total_ns();
    }
    st.lreader_ns.store(mx);
    st.rreader_ns.store(sum);
  }

  /// fn(writer, reader) with `stripe`'s treap stores (kTreap only): for
  /// tests that compare store contents.
  template <class F>
  void inspect(int stripe, F&& fn) const {
    const TreapSet& set = *treaps_[std::size_t(stripe)];
    fn(set.writer, set.reader);
  }

 private:
  template <class W, class R>
  struct StoreSet {
    W writer;
    R reader;
    std::vector<Interval> pieces;  // its stripe lane's scratch (sharded)
  };
  using TreapSet =
      StoreSet<store::IntervalStore, store::BasicIntervalStore<P>>;
  using MapSet = StoreSet<GranuleMap, BasicGranuleMap<P>>;
  static constexpr bool kTwoSided = std::is_same_v<P, store::ReaderPair>;

  template <class Set>
  void apply_to(Set& set, const Strand& s, Roles roles, int stripe) {
    if (roles & kWriterRole) writer_pass(set, s, stripe);
    if (roles & kReaderRole) reader_pass(set, s, stripe);
  }

  /// Hands n intervals of one list to run(first, k) as sorted disjoint
  /// runs: a canonical list as one run, any other one interval at a time.
  /// Sharded, only the stripe's pieces are handed over, gathered per run;
  /// one interval's pieces are always sorted and disjoint, and so are a
  /// canonical list's.
  template <class Iv, class Run>
  void runs(std::vector<Interval>& pieces, const Iv* iv, std::size_t n,
            bool canonical, int stripe, Run&& run) {
    if (n == 0) return;
    const std::size_t step = canonical ? n : 1;
    for (std::size_t at = 0; at < n; at += step) {
      if (shards_ == 0) {
        run(iv + at, step);
        continue;
      }
      pieces.clear();
      for (std::size_t j = at; j < at + step; ++j) {
        for_shard_pieces(iv[j].lo, iv[j].hi, stripe, shards_,
                         [&](addr_t lo, addr_t hi) {
                           pieces.push_back({lo, hi});
                         });
      }
      if (!pieces.empty()) run(pieces.data(), pieces.size());
    }
  }

  /// One record list through runs(); each run of a canonical list counts
  /// as one bulk run.
  template <class Set, class Run>
  void records(Set& set, const AccessBuffer& buf, int stripe, Run&& run) {
    const bool canonical = buf.canonical();
    runs(set.pieces, buf.items().data(), buf.items().size(), canonical,
         stripe, [&](const auto* iv, std::size_t k) {
           if (canonical) {
             stats_.bulk_runs.fetch_add(1, std::memory_order_relaxed);
             stats_.bulk_run_intervals.fetch_add(k, std::memory_order_relaxed);
           }
           run(iv, k);
         });
  }

  template <class Set, class Store>
  void erase(Set& set, Store& t, const Strand& s, int stripe) {
    const auto erase_run = [&t](const auto* iv, std::size_t k) {
      t.erase_run(iv, k);
    };
    runs(set.pieces, s.clears.data(), s.clears.size(), false, stripe,
         erase_run);
    runs(set.pieces, s.frees.data(), s.frees.size(), false, stripe,
         erase_run);
  }

  /// Reads checked against the last-writer store, then writes checked
  /// against and inserted into it (query-before-insert, per Theorem 5's
  /// proof).  Each pass walks the strand's sub-records in apply order, so
  /// the last writer kept is the least-guarded one.  A sub-record is
  /// interned at its first run; later runs reuse that entry.
  template <class Set>
  void writer_pass(Set& set, const Strand& s, int stripe) {
    auto& t = set.writer;
    s.for_each_record([&](const LockRecord& r) {
      const auto on_read = make_conflict_cb(t.table(), accessor_of(s, r),
                                            true, false, reach_, rep_, stats_);
      records(set, r.reads, stripe, [&](const auto* iv, std::size_t k) {
        t.query_run(iv, k, on_read);
      });
    });
    s.for_each_record([&](const LockRecord& r) {
      const store::Accessor me = accessor_of(s, r);
      const auto on_write = make_conflict_cb(t.table(), me, true, true,
                                             reach_, rep_, stats_);
      records(set, r.writes, stripe, [&](const auto* iv, std::size_t k) {
        t.insert_writer_run(iv, k, t.intern(me), on_write);
      });
    });
    erase(set, t, s, stripe);
  }

  /// Writes checked against the reader store, then reads inserted with
  /// its retention rule.
  template <class Set>
  void reader_pass(Set& set, const Strand& s, int stripe) {
    auto& t = set.reader;
    s.for_each_record([&](const LockRecord& r) {
      const store::Accessor me = accessor_of(s, r);
      const auto check = [&] {
        if constexpr (kTwoSided) {
          return make_reader_conflict_cb(t.table(), me, reach_, rep_, stats_);
        } else {
          return make_conflict_cb(t.table(), me, false, true, reach_, rep_,
                                  stats_);
        }
      }();
      records(set, r.writes, stripe, [&](const auto* iv, std::size_t k) {
        t.query_run(iv, k, check);
      });
    });
    s.for_each_record([&](const LockRecord& r) {
      const store::Accessor me = accessor_of(s, r);
      records(set, r.reads, stripe, [&](const auto* iv, std::size_t k) {
        const store::Handle h = t.intern(me);
        if constexpr (kTwoSided) {
          t.insert_reader_run(iv, k, store::ReaderPair{h, h},
                              make_reader_resolver(t.table(), h, reach_,
                                                   stats_));
        } else {
          t.insert_reader_run(iv, k, h,
                              make_serial_resolver(t.table(), h, reach_,
                                                   stats_));
        }
      });
    });
    erase(set, t, s, stripe);
  }

  const int shards_;
  reach::Engine& reach_;
  RaceReporter& rep_;
  Stats& stats_;
  std::vector<std::unique_ptr<TreapSet>> treaps_;
  std::vector<std::unique_ptr<MapSet>> maps_;
  std::vector<Lane> lanes_;
  Watch watch_ = Watch::kStrand;
};

}  // namespace pint::detect
