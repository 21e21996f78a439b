#pragma once

// Counters and component timings collected during a detection run.  The
// work-breakdown fields (core/writer/lreader/rreader) feed the Fig. 2
// harness directly.

#include <atomic>
#include <cstdint>

namespace pint::detect {

struct Stats {
  // Access volume.
  std::atomic<std::uint64_t> raw_reads{0};
  std::atomic<std::uint64_t> raw_writes{0};
  std::atomic<std::uint64_t> read_intervals{0};
  std::atomic<std::uint64_t> write_intervals{0};

  // Hot-path effectiveness (DESIGN.md §9/§11).  fastpath_accesses counts
  // raw accesses recorded through the thread-local AccessCursor;
  // fastpath_hits the subset absorbed in cursor storage (open interval +
  // pending ring - no per-access AccessBuffer touch; the bounded
  // end-of-strand drain is the hand-off, not a miss); cursor_spills the
  // complement (ring overflow / bypass / ablation add_raw events);
  // slowpath_accesses those that took the classic detector-load +
  // virtual-dispatch route.  policy_switches / policy_bypass expose the
  // per-call-site adaptive policy: mode transitions taken and accesses
  // routed by bypass-mode sites.  memo_queries/memo_hits are the history
  // workers' SP-order coordinate-memo totals (a hit = all four label
  // coordinates served from cache).
  std::atomic<std::uint64_t> fastpath_accesses{0};
  std::atomic<std::uint64_t> fastpath_hits{0};
  std::atomic<std::uint64_t> cursor_spills{0};
  std::atomic<std::uint64_t> policy_switches{0};
  std::atomic<std::uint64_t> policy_bypass{0};
  std::atomic<std::uint64_t> slowpath_accesses{0};
  std::atomic<std::uint64_t> memo_queries{0};
  std::atomic<std::uint64_t> memo_hits{0};

  // AccessBuffer::add tail-probe fast path (DESIGN.md §13).  Every add()
  // probes the last kTails stored intervals for a stream to extend before
  // appending: tail_probe_hits counts absorbed adds, tail_probe_misses the
  // appends.  Only spill/slow-route adds reach add() at all, so these
  // counters expose exactly the traffic the cursor could not absorb.
  std::atomic<std::uint64_t> tail_probe_hits{0};
  std::atomic<std::uint64_t> tail_probe_misses{0};

  // Allocation-free hot path (DESIGN.md §13).  arena_reuses / arena_fresh
  // are the per-run delta of the process-wide recycler counters (objects +
  // slabs served from a freelist vs from the system allocator; concurrent
  // detectors blur the attribution, same caveat as deep_backoffs).
  // empty_strand_skips counts strands collected with no recorded work that
  // skipped queue publication entirely.  finalize_sorted_skips counts
  // AccessBuffer seals whose items were already sorted (no sort at all);
  // finalize_simd those that took the vectorized merge.
  std::atomic<std::uint64_t> arena_reuses{0};
  std::atomic<std::uint64_t> arena_fresh{0};
  std::atomic<std::uint64_t> empty_strand_skips{0};
  std::atomic<std::uint64_t> finalize_sorted_skips{0};
  std::atomic<std::uint64_t> finalize_simd{0};

  // Bulk-run apply + batched lane consumption (DESIGN.md §10).  bulk_runs
  // counts *_run calls issued to a history store, bulk_run_intervals the
  // intervals they carried (ratio = average run length).  batch_drains /
  // batch_strands are the consumer lanes' head-snapshot batches and the
  // strands they drained; prefetch_issues the next-strand software
  // prefetches; deep_backoffs the Backoff waits that reached the bounded
  // sleep tier (process-wide delta attributed to the run).
  std::atomic<std::uint64_t> bulk_runs{0};
  std::atomic<std::uint64_t> bulk_run_intervals{0};
  std::atomic<std::uint64_t> batch_drains{0};
  std::atomic<std::uint64_t> batch_strands{0};
  std::atomic<std::uint64_t> prefetch_issues{0};
  std::atomic<std::uint64_t> deep_backoffs{0};

  // Computation shape.
  std::atomic<std::uint64_t> strands{0};
  std::atomic<std::uint64_t> traces{0};
  std::atomic<std::uint64_t> steals{0};
  std::atomic<std::uint64_t> reach_queries{0};

  // Pipeline pressure & degradation (robustness layer).  These make
  // overload and fault handling visible instead of silent: sustained
  // queue-full pressure shows up as stalled_pushes/backoff_pauses, shed
  // load as dropped_strands, survived allocation failures as oom_events,
  // and watchdog interventions as watchdog_trips.
  std::atomic<std::uint64_t> stalled_pushes{0};   // try_push found ring full
  std::atomic<std::uint64_t> backoff_pauses{0};   // collect() backoff waits
  std::atomic<std::uint64_t> dropped_strands{0};  // shed at the queue cap
  std::atomic<std::uint64_t> oom_events{0};       // allocation-failure falls
  std::atomic<std::uint64_t> watchdog_trips{0};   // stall interventions

  // Time, nanoseconds.
  std::atomic<std::uint64_t> core_ns{0};     // core component (wall)
  std::atomic<std::uint64_t> writer_ns{0};   // writer treap worker busy time
  std::atomic<std::uint64_t> lreader_ns{0};  // left-most reader treap worker
  std::atomic<std::uint64_t> rreader_ns{0};  // right-most reader treap worker
  std::atomic<std::uint64_t> total_ns{0};    // whole detection run (wall)

  // QUIESCENCE CONTRACT: the individual counters are atomic, so concurrent
  // fetch_add from detector workers is always safe - but clear() and
  // snapshot() are multi-field operations with no ordering between fields.
  // Calling either while a detection run is in flight yields a torn view
  // (some fields pre-, some post-update), and clear() would silently drop
  // in-flight increments.  Both may only be called at quiescence: before a
  // run starts or after PintDetector::run() has returned (all worker and
  // history threads joined - the joins publish every increment).

  void clear() {
    raw_reads = raw_writes = read_intervals = write_intervals = 0;
    fastpath_accesses = fastpath_hits = slowpath_accesses = 0;
    cursor_spills = policy_switches = policy_bypass = 0;
    memo_queries = memo_hits = 0;
    tail_probe_hits = tail_probe_misses = 0;
    arena_reuses = arena_fresh = empty_strand_skips = 0;
    finalize_sorted_skips = finalize_simd = 0;
    bulk_runs = bulk_run_intervals = 0;
    batch_drains = batch_strands = prefetch_issues = deep_backoffs = 0;
    strands = traces = steals = reach_queries = 0;
    stalled_pushes = backoff_pauses = dropped_strands = 0;
    oom_events = watchdog_trips = 0;
    core_ns = writer_ns = lreader_ns = rreader_ns = total_ns = 0;
  }

  /// Plain-value snapshot for printing.
  struct Snapshot {
    std::uint64_t raw_reads, raw_writes, read_intervals, write_intervals;
    std::uint64_t fastpath_accesses, fastpath_hits, slowpath_accesses;
    std::uint64_t cursor_spills, policy_switches, policy_bypass;
    std::uint64_t memo_queries, memo_hits;
    std::uint64_t tail_probe_hits, tail_probe_misses;
    std::uint64_t arena_reuses, arena_fresh, empty_strand_skips;
    std::uint64_t finalize_sorted_skips, finalize_simd;
    std::uint64_t bulk_runs, bulk_run_intervals;
    std::uint64_t batch_drains, batch_strands, prefetch_issues, deep_backoffs;
    std::uint64_t strands, traces, steals, reach_queries;
    std::uint64_t stalled_pushes, backoff_pauses, dropped_strands;
    std::uint64_t oom_events, watchdog_trips;
    std::uint64_t core_ns, writer_ns, lreader_ns, rreader_ns, total_ns;
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
    double memo_hit_rate() const {
      return memo_queries == 0 ? 0.0
                               : double(memo_hits) / double(memo_queries);
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
    return {raw_reads.load(),         raw_writes.load(),
            read_intervals.load(),    write_intervals.load(),
            fastpath_accesses.load(), fastpath_hits.load(),
            slowpath_accesses.load(), cursor_spills.load(),
            policy_switches.load(),   policy_bypass.load(),
            memo_queries.load(),      memo_hits.load(),
            tail_probe_hits.load(),   tail_probe_misses.load(),
            arena_reuses.load(),      arena_fresh.load(),
            empty_strand_skips.load(),
            finalize_sorted_skips.load(), finalize_simd.load(),
            bulk_runs.load(),
            bulk_run_intervals.load(), batch_drains.load(),
            batch_strands.load(),     prefetch_issues.load(),
            deep_backoffs.load(),     strands.load(),
            traces.load(),            steals.load(),
            reach_queries.load(),     stalled_pushes.load(),
            backoff_pauses.load(),    dropped_strands.load(),
            oom_events.load(),        watchdog_trips.load(),
            core_ns.load(),           writer_ns.load(),
            lreader_ns.load(),        rreader_ns.load(),
            total_ns.load()};
  }
};

}  // namespace pint::detect
