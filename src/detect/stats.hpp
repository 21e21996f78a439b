#pragma once

// Counters and component timings collected during a detection run.  The
// work-breakdown fields (core/writer/lreader/rreader) feed the Fig. 2
// harness directly (PINT's one reader lane reports as lreader_ns; sharded
// mode: busiest shard in lreader_ns, the shard total in rreader_ns).
//
// Every counter is declared once, in PINT_STATS_COUNTERS below: the table
// generates the atomics, clear(), Snapshot, snapshot() and the telemetry
// export (export_telemetry: each counter under its own name), and the bench
// harness's --stats-json section expands it too, so a counter added here
// reaches every view.  Each entry is X(name); the groups:
//
//   Access volume: raw accesses and the intervals they coalesced into.
//
//   Hot-path effectiveness (DESIGN.md §9).  fastpath_accesses counts raw
//   accesses recorded through the thread-local AccessCursor; fastpath_hits
//   the subset absorbed in cursor storage (open interval + pending ring - no
//   per-access AccessBuffer touch; the bounded end-of-strand drain is the
//   hand-off, not a miss); cursor_spills the complement (ring overflow /
//   ablation add_raw events; a spill merged in place still counts, it
//   touched the buffer); slowpath_accesses those that took the classic
//   detector-load + virtual-dispatch route.  memo_queries/memo_hits always
//   read 0: the DePa pair-verdict memo they counted is deleted (a cache
//   probe cost more than the label compare it saved, DESIGN.md §9.2), and
//   the repo benchmark (benchmark/pintbench.cpp) still reads both fields
//   for its reach.memo_hit_rate key.  They go with that key.
//
//   AccessBuffer::add tail-probe fast path (DESIGN.md §13).  Every add()
//   probes the last kTails stored intervals for a stream to extend before
//   appending: tail_probe_hits counts absorbed adds, tail_probe_misses the
//   appends.  A cursor spill merged into its same-start interval
//   (AccessBuffer::merge_at, DESIGN.md §9.1) counts as an absorbed add, so
//   hits + misses = the intervals that reached a strand buffer.  Three
//   sources feed them: cursor spills, slow-route accesses, and the cursor
//   flush at each strand end and each lock event (open interval + pending
//   ring).  The flush is where most of racy-seq's hits come from, so these
//   are not the cursor's misses; cursor_spills is.
//
//   Allocation and finalize (DESIGN.md §13).  arena_reuses / arena_fresh
//   always read 0: the process-wide arena they counted is deleted (each
//   detector now frees its memory at destruction, §13.1), and the repo
//   benchmark still reads both fields for its arena.reuses / arena.fresh
//   keys - the memo_queries precedent above.  They go with those keys.
//   empty_strand_skips counts strands collected with no recorded work that
//   skipped queue publication entirely.  finalize_sorted_skips counts
//   AccessBuffer seals whose items were already sorted (no sort at all).
//
//   Bulk-run apply + batched lane consumption (DESIGN.md §10).  bulk_runs
//   counts *_run calls issued to a history store, bulk_run_intervals the
//   intervals they carried (ratio = average run length).  batch_drains /
//   batch_strands are the consumer lanes' head-snapshot batches and the
//   strands they drained; prefetch_issues the next-strand software
//   prefetches; deep_backoffs the Backoff waits that reached the bounded
//   sleep tier (process-wide delta attributed to the run).
//
//   Lane parking (DESIGN.md §6.6), pipelined PINT only.  lane_parks counts
//   the futex waits idle history lanes (writer, reader, shards) entered,
//   lane_wakes the wakes producers and finish events issued while a lane
//   was parked, lane_park_ns the wall time (CLOCK_MONOTONIC) lanes spent
//   parked: the "sleeping" part of a lane's busy / spinning / sleeping
//   split.
//
//   Computation shape: strands, traces, steals, reachability queries, and
//   lock_splits - the non-empty lock sub-records beyond each strand's first
//   (STINT and PINT, DESIGN.md §12.3): a strand that recorded under k
//   locksets counts k - 1.
//
//   Pipeline pressure & degradation (robustness layer).  These make
//   overload and fault handling visible instead of silent: sustained
//   queue-full pressure shows up as stalled_pushes (try_push found the ring
//   full) / backoff_pauses (collect() backoff waits), shed load at the queue
//   cap as dropped_strands, survived allocation failures as oom_events, and
//   watchdog interventions as watchdog_trips.
//
//   Time, nanoseconds: core component (wall), the writer / left-most reader
//   / right-most reader history lanes' busy time, and the whole detection
//   run (wall).

#include <atomic>
#include <cstdint>

#define PINT_STATS_COUNTERS(X)                                             \
  X(raw_reads) X(raw_writes) X(read_intervals) X(write_intervals)          \
  X(fastpath_accesses) X(fastpath_hits) X(cursor_spills)                   \
  X(slowpath_accesses) X(memo_queries) X(memo_hits)                        \
  X(tail_probe_hits) X(tail_probe_misses)                                  \
  X(arena_reuses) X(arena_fresh) X(empty_strand_skips)                     \
  X(finalize_sorted_skips)                                                 \
  X(bulk_runs) X(bulk_run_intervals) X(batch_drains) X(batch_strands)      \
  X(prefetch_issues) X(deep_backoffs)                                      \
  X(lane_parks) X(lane_wakes) X(lane_park_ns)                              \
  X(strands) X(lock_splits) X(traces) X(steals) X(reach_queries)           \
  X(stalled_pushes) X(backoff_pauses) X(dropped_strands) X(oom_events)     \
  X(watchdog_trips)                                                        \
  X(core_ns) X(writer_ns) X(lreader_ns) X(rreader_ns) X(total_ns)

namespace pint::detect {

struct Stats {
#define PINT_STATS_ATOMIC(name) std::atomic<std::uint64_t> name{0};
  PINT_STATS_COUNTERS(PINT_STATS_ATOMIC)
#undef PINT_STATS_ATOMIC

  // QUIESCENCE CONTRACT: the individual counters are atomic, so concurrent
  // fetch_add from detector workers is always safe - but clear() and
  // snapshot() are multi-field operations with no ordering between fields.
  // Calling either while a detection run is in flight yields a torn view
  // (some fields pre-, some post-update), and clear() would silently drop
  // in-flight increments.  Both may only be called at quiescence: before a
  // run starts or after PintDetector::run() has returned (all worker and
  // history threads joined - the joins publish every increment).

  void clear() {
#define PINT_STATS_CLEAR(name) name.store(0);
    PINT_STATS_COUNTERS(PINT_STATS_CLEAR)
#undef PINT_STATS_CLEAR
  }

  /// Plain-value snapshot for printing.
  struct Snapshot {
#define PINT_STATS_PLAIN(name) std::uint64_t name = 0;
    PINT_STATS_COUNTERS(PINT_STATS_PLAIN)
#undef PINT_STATS_PLAIN
    double coalesce_factor() const {
      const auto raw = raw_reads + raw_writes;
      const auto iv = read_intervals + write_intervals;
      return iv == 0 ? 0.0 : double(raw) / double(iv);
    }
    double fastpath_hit_rate() const {
      return fastpath_accesses == 0
                 ? 0.0
                 : double(fastpath_hits) / double(fastpath_accesses);
    }
    double avg_run_len() const {
      return bulk_runs == 0 ? 0.0
                            : double(bulk_run_intervals) / double(bulk_runs);
    }
    double avg_batch() const {
      return batch_drains == 0 ? 0.0
                               : double(batch_strands) / double(batch_drains);
    }
  };
  Snapshot snapshot() const {
    Snapshot s;
#define PINT_STATS_LOAD(name) s.name = name.load();
    PINT_STATS_COUNTERS(PINT_STATS_LOAD)
#undef PINT_STATS_LOAD
    return s;
  }

  /// Adds every counter to the calling thread's telemetry totals under its
  /// field name (telem::count).  Quiescence only, like snapshot().
  void export_telemetry() const;
};

}  // namespace pint::detect
