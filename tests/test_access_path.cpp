// Equivalence regression for the access hot path (DESIGN.md §9): the
// thread-local AccessCursor fast path and the classic record_access_slow
// route must produce the same detection result, and so must coalescing
// on/off.  Checked at three strengths:
//
//  * cursor unit tests: install/invalidate, inline coalescing, pending-ring
//    spill, the misuse guard and the global knob;
//  * deterministic detectors (STINT, phased one-core PINT): the full race
//    RECORDS are bit-identical across fast path on/off (same sids, same
//    kinds, same byte ranges - rebased when the two runs use fresh kernel
//    heaps);
//  * pipelined and sharded PINT: the detected pair set and distinct count
//    match; the sampled records() prefix is only compared below the
//    reporter cap;
//  * coalesce on/off: identical racing-pair sets on every kernel; on random
//    programs the contract is the detection verdict (checked against the
//    oracle), since finer intervals may retain different readers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "common.hpp"
#include "kernels/kernels.hpp"

using namespace pint;

namespace {

// RAII: tests flip the global fast-path knob; never leak the setting.
struct FastPathGuard {
  bool saved = detect::access_fast_path();
  ~FastPathGuard() { detect::set_access_fast_path(saved); }
};

// ---------------------------------------------------------------------------
// Cursor unit tests (drive detail::record_access directly - no detector)
// ---------------------------------------------------------------------------

TEST(AccessCursor, SequentialAccessesCoalesceToOneInterval) {
  FastPathGuard g;
  detect::set_access_fast_path(true);
  detect::AccessBuffer reads, writes;
  detect::cursor_install(&reads, &writes, /*coalesce=*/true);
  ASSERT_TRUE(detect::cursor_installed());
  alignas(8) unsigned char buf[256] = {};
  for (int i = 0; i < 32; ++i) detail::record_access(buf + i * 8, 8, false);
  const detect::CursorFlush fl = detect::cursor_invalidate();
  EXPECT_FALSE(detect::cursor_installed());
  EXPECT_EQ(fl.raw_reads, 32u);
  EXPECT_EQ(fl.raw_writes, 0u);
  // Every access is absorbed in cursor storage (no per-access buffer
  // touch), including the one that opened the interval: hits = raw - spills.
  EXPECT_EQ(fl.hits, 32u);
  EXPECT_EQ(fl.spills, 0u);
  reads.finalize(true);
  ASSERT_EQ(reads.items().size(), 1u);
  EXPECT_EQ(reads.items()[0].lo, detect::addr_of(buf));
  EXPECT_EQ(reads.items()[0].hi, detect::addr_of(buf) + 255);
  EXPECT_TRUE(writes.empty());
}

TEST(AccessCursor, InterleavedStreamsStayInThePendingRing) {
  FastPathGuard g;
  detect::set_access_fast_path(true);
  detect::AccessBuffer reads, writes;
  detect::cursor_install(&reads, &writes, true);
  // kTails interleaved streams - the GEMM shape the tail probe exists for.
  // One arena with gaps between the streams: separate allocations can land
  // adjacent (they do under the TSan allocator), which would legitimately
  // merge the per-stream intervals and break the counts below.
  constexpr std::size_t kStreams = detect::AccessBuffer::kTails;
  constexpr std::size_t kStride = 1024;  // 512 used + 512 gap
  std::vector<unsigned char> arena(kStreams * kStride);
  for (int i = 0; i < 64; ++i) {
    for (std::size_t s = 0; s < kStreams; ++s) {
      detail::record_access(arena.data() + s * kStride + i * 8, 8, true);
    }
  }
  const detect::CursorFlush fl = detect::cursor_invalidate();
  EXPECT_EQ(fl.raw_writes, 64u * kStreams);
  // kTails streams fit exactly in cursor storage (open + pending ring), so
  // nothing ever spills: every access counts as absorbed.
  EXPECT_EQ(fl.hits, 64u * kStreams);
  EXPECT_EQ(fl.spills, 0u);
  writes.finalize(true);
  EXPECT_EQ(writes.items().size(), kStreams);
}

TEST(AccessCursor, OverflowSpillsToTheBufferWithoutLosingBytes) {
  FastPathGuard g;
  detect::set_access_fast_path(true);
  detect::AccessBuffer reads, writes;
  detect::cursor_install(&reads, &writes, true);
  // More concurrent streams than cursor storage: correctness must not
  // depend on the cursor's capacity, only hit counts may drop.  Gapped
  // arena for the same reason as above.
  constexpr std::size_t kStreams = detect::AccessBuffer::kTails * 3;
  constexpr std::size_t kStride = 128;  // 64 used + 64 gap
  std::vector<unsigned char> arena(kStreams * kStride);
  for (int i = 0; i < 8; ++i) {
    for (std::size_t s = 0; s < kStreams; ++s) {
      detail::record_access(arena.data() + s * kStride + i * 8, 8, false);
    }
  }
  detect::cursor_invalidate();
  reads.finalize(true);
  ASSERT_EQ(reads.items().size(), kStreams);
  std::uint64_t bytes = 0;
  for (const auto& iv : reads.items()) bytes += iv.hi - iv.lo + 1;
  EXPECT_EQ(bytes, kStreams * 64u);
}

// gemm_base's read shape for one C row: a(k) and the C row are re-read at
// every k while the B rows cycle.  The pending ring evicts its
// least-recently-used slot, so only B rows ever spill: each B row opening
// from the third on spills the row two before it (a FIFO ring spilled the
// A and C streams too).
TEST(AccessCursor, HotStreamsSurviveCyclingRows) {
  FastPathGuard g;
  detect::set_access_fast_path(true);
  detect::AccessBuffer reads, writes;
  detect::cursor_install(&reads, &writes, true);
  constexpr std::size_t kRows = 16, kCols = 16, kPasses = 8;
  constexpr std::size_t kStride = 128;  // doubles: 1 KiB, 128 B used + gap
  std::vector<double> arena((kRows + 2) * kStride);
  const double* a = arena.data() + kRows * kStride;
  const double* c = a + kStride;
  for (std::size_t p = 0; p < kPasses; ++p) {
    for (std::size_t k = 0; k < kRows; ++k) {
      detail::record_access(&a[k], sizeof(double), false);
      const double* b = arena.data() + k * kStride;
      for (std::size_t j = 0; j < kCols; ++j) {
        detail::record_access(&b[j], sizeof(double), false);
        detail::record_access(&c[j], sizeof(double), false);
      }
    }
  }
  const detect::CursorFlush fl = detect::cursor_invalidate();
  EXPECT_EQ(fl.raw_reads, kPasses * kRows * (1 + 2 * kCols));
  EXPECT_EQ(fl.spills, kPasses * kRows - 2);
  EXPECT_EQ(fl.hits, fl.raw_reads - fl.spills);
  reads.finalize(true);
  ASSERT_EQ(reads.items().size(), kRows + 2);
  std::uint64_t bytes = 0;
  for (const auto& iv : reads.items()) bytes += iv.hi - iv.lo + 1;
  EXPECT_EQ(bytes, (kRows + 2) * kCols * sizeof(double));
}

// Streams re-read from their start every round spill with the same start
// each time; the cursor extends the interval spilled earlier in place
// instead of appending a duplicate, so the buffer holds one interval per
// stream plus at most the end-of-strand drain.  The 1 KiB stride keeps the
// streams' starts in distinct slots of the cursor's spill index for any
// arena base.
TEST(AccessCursor, RepeatedSpillsMergeInPlace) {
  FastPathGuard g;
  detect::set_access_fast_path(true);
  detect::AccessBuffer reads, writes;
  detect::cursor_install(&reads, &writes, true);
  constexpr std::size_t kStreams = 12, kLen = 16, kRounds = 10;
  constexpr std::size_t kStride = 128;  // doubles: 1 KiB, 128 B used + gap
  std::vector<double> arena(kStreams * kStride);
  for (std::size_t r = 0; r < kRounds; ++r) {
    for (std::size_t s = 0; s < kStreams; ++s) {
      for (std::size_t j = 0; j < kLen; ++j) {
        detail::record_access(arena.data() + s * kStride + j, sizeof(double),
                              false);
      }
    }
  }
  const detect::CursorFlush fl = detect::cursor_invalidate();
  // Every opening past the fourth spills (12 streams cycle through 4
  // slots), but the spills land on kStreams buffer intervals.
  EXPECT_EQ(fl.spills, kRounds * kStreams - detect::AccessBuffer::kTails);
  EXPECT_LE(reads.raw_count(), kStreams + detect::AccessBuffer::kTails);
  EXPECT_EQ(reads.tail_hits() + reads.tail_misses(),
            fl.spills + detect::AccessBuffer::kTails);
  reads.finalize(true);
  ASSERT_EQ(reads.items().size(), kStreams);
  for (const auto& iv : reads.items()) {
    EXPECT_EQ(iv.hi - iv.lo + 1, kLen * sizeof(double));
  }
}

TEST(AccessCursor, CoalesceOffRecordsEveryAccessRaw) {
  FastPathGuard g;
  detect::set_access_fast_path(true);
  detect::AccessBuffer reads, writes;
  detect::cursor_install(&reads, &writes, /*coalesce=*/false);
  unsigned char buf[128] = {};
  for (int i = 0; i < 16; ++i) detail::record_access(buf + i * 8, 8, true);
  const detect::CursorFlush fl = detect::cursor_invalidate();
  EXPECT_EQ(fl.raw_writes, 16u);
  EXPECT_EQ(fl.hits, 0u);
  writes.finalize(false);
  EXPECT_EQ(writes.items().size(), 16u);  // ablation: one interval per access
}

TEST(AccessCursor, KnobOffMeansNoCursorEverInstalls) {
  FastPathGuard g;
  detect::set_access_fast_path(false);
  detect::AccessBuffer reads, writes;
  detect::cursor_install(&reads, &writes, true);
  EXPECT_FALSE(detect::cursor_installed());
  const detect::CursorFlush fl = detect::cursor_invalidate();
  EXPECT_EQ(fl.raw_reads + fl.raw_writes + fl.hits, 0u);
}

TEST(AccessCursor, DoubleInstallFlushesThePreviousStrand) {
  FastPathGuard g;
  detect::set_access_fast_path(true);
  detect::AccessBuffer r1, w1, r2, w2;
  unsigned char buf[64] = {};
  detect::cursor_install(&r1, &w1, true);
  detail::record_access(buf, 8, false);
  detect::cursor_install(&r2, &w2, true);  // misuse guard path
  detail::record_access(buf + 8, 8, false);
  detect::cursor_invalidate();
  r1.finalize(true);
  r2.finalize(true);
  ASSERT_EQ(r1.items().size(), 1u);  // first strand's access was not lost
  ASSERT_EQ(r2.items().size(), 1u);
  EXPECT_EQ(r1.items()[0].lo, detect::addr_of(buf));
  EXPECT_EQ(r2.items()[0].lo, detect::addr_of(buf) + 8);
}

TEST(AccessCursor, ZeroLengthAccessesAreDiscardedByTheWrappers) {
  unsigned char buf[8] = {};
  record_read(buf, 0);  // must not reach any recording path
  record_write(buf, 0);
}

// ---------------------------------------------------------------------------
// Whole-detector equivalence
// ---------------------------------------------------------------------------

// Full record: (prev_sid, cur_sid, prev_write, cur_write, lo, hi).
using FullRecord = std::tuple<std::uint64_t, std::uint64_t, int, int,
                              std::uint64_t, std::uint64_t>;
// Dedup identity: symmetric strand pair + kind bits (report.hpp pair_key).
using PairKey = std::tuple<std::uint64_t, std::uint64_t, int, int>;

enum class Sys { kStint, kPintSeq, kPint1, kPintShard };

struct RunOut {
  std::vector<FullRecord> full;    // sorted, absolute addresses
  std::vector<FullRecord> rebased; // same, addresses rebased to the run min
  std::vector<PairKey> pairs;      // sorted + deduped
  std::uint64_t distinct = 0;
  std::uint64_t dropped = 0;       // records shed at the reporter cap
  detect::Stats::Snapshot stats{};
};

RunOut summarize(const detect::RaceReporter& rep,
                 const detect::Stats& stats) {
  RunOut out;
  std::uint64_t min_lo = ~std::uint64_t(0);
  for (const detect::RaceRecord& r : rep.records()) {
    out.full.push_back(
        {r.prev_sid, r.cur_sid, r.prev_write, r.cur_write, r.lo, r.hi});
    min_lo = std::min(min_lo, r.lo);
    std::uint64_t a = r.prev_sid, b = r.cur_sid;
    int aw = r.prev_write, bw = r.cur_write;
    if (a > b) {
      std::swap(a, b);
      std::swap(aw, bw);
    }
    out.pairs.push_back({a, b, aw, bw});
  }
  std::sort(out.full.begin(), out.full.end());
  // Kernels allocate their working set per instance, so two runs see the
  // same byte ranges at different heap bases; rebasing to the run's minimum
  // recorded address makes records comparable while still pinning every
  // relative offset and interval extent bit-for-bit.
  out.rebased = out.full;
  for (auto& [ps, cs, pw, cw, lo, hi] : out.rebased) {
    lo -= min_lo;
    hi -= min_lo;
  }
  std::sort(out.pairs.begin(), out.pairs.end());
  out.pairs.erase(std::unique(out.pairs.begin(), out.pairs.end()),
                  out.pairs.end());
  out.distinct = rep.distinct_races();
  out.dropped = rep.dropped_records();
  out.stats = stats.snapshot();
  return out;
}

RunOut run_config(Sys sys, bool coalesce, bool fast,
                  const std::function<void()>& body, std::uint64_t seed = 7) {
  FastPathGuard g;
  detect::set_access_fast_path(fast);
  if (sys == Sys::kStint) {
    stint::StintDetector::Options o;
    o.seed = seed;
    o.coalesce = coalesce;
    stint::StintDetector det(o);
    det.run(body);
    return summarize(det.reporter(), det.stats());
  }
  pintd::PintDetector::Options o;
  o.seed = seed;
  o.coalesce = coalesce;
  o.parallel_history = sys != Sys::kPintSeq;
  if (sys == Sys::kPintShard) o.history_shards = 2;  // §VI sharded mode
  o.core_workers = 1;
  pintd::PintDetector det(o);
  det.run(body);
  return summarize(det.reporter(), det.stats());
}

// Runs the kernel on the fast and the slow route under STINT and phased
// PINT and demands bit-identical results.  Both routes run on one kernel
// instance, re-prepared (prepare() is idempotent per instance): a fresh
// instance could place the working set's heap blocks at different relative
// offsets (lkcache has several), which rebasing cannot cancel.
void expect_routes_identical(const std::string& kernel, bool seeded) {
  kernels::KernelConfig cfg;
  cfg.scale = 0.1;
  cfg.seeded_race = seeded;
  for (Sys sys : {Sys::kStint, Sys::kPintSeq}) {
    auto k = kernels::make_kernel(kernel, cfg);
    k->prepare();
    const RunOut fast = run_config(sys, true, true, [&] { k->run(); });
    k->prepare();
    const RunOut slow = run_config(sys, true, false, [&] { k->run(); });
    // prepare() may reallocate, so compare rebased records: every sid,
    // kind, relative offset and interval extent must match bit-for-bit.
    EXPECT_EQ(fast.rebased, slow.rebased)
        << "fast/slow records diverge, sys=" << int(sys);
    EXPECT_EQ(fast.distinct, slow.distinct);
    // Same strand boundaries, lock-driven splits included (DESIGN.md
    // §12.3): the sids above depend on them.
    EXPECT_EQ(fast.stats.strands, slow.stats.strands) << "sys=" << int(sys);
    EXPECT_EQ(fast.stats.lock_splits, slow.stats.lock_splits)
        << "sys=" << int(sys);
    // The route split must be total: everything fast with the cursor on,
    // everything slow with it off, identical raw-access totals either way.
    EXPECT_GT(fast.stats.fastpath_accesses, 0u);
    EXPECT_EQ(fast.stats.slowpath_accesses, 0u);
    EXPECT_EQ(slow.stats.fastpath_accesses, 0u);
    EXPECT_GT(slow.stats.slowpath_accesses, 0u);
    EXPECT_EQ(fast.stats.raw_reads + fast.stats.raw_writes,
              slow.stats.raw_reads + slow.stats.raw_writes);
  }
}

class KernelAccessPath : public ::testing::TestWithParam<std::string> {};

TEST_P(KernelAccessPath, FastPathIsBitIdenticalOnDeterministicDetectors) {
  expect_routes_identical(GetParam(), /*seeded=*/true);  // non-trivial races
}

TEST_P(KernelAccessPath, CoalesceOnOffReportTheSameRacingPairs) {
  kernels::KernelConfig cfg;
  cfg.scale = 0.1;
  cfg.seeded_race = true;
  for (const bool fast : {true, false}) {
    auto fresh = [&] {
      auto k = kernels::make_kernel(GetParam(), cfg);
      k->prepare();
      return k;
    };
    auto kon = fresh();
    const RunOut on = run_config(Sys::kStint, true, fast, [&] { kon->run(); });
    auto koff = fresh();
    const RunOut off =
        run_config(Sys::kStint, false, fast, [&] { koff->run(); });
    EXPECT_EQ(on.pairs, off.pairs) << "coalesce on/off diverge, fast=" << fast;
  }
}

TEST_P(KernelAccessPath, PipelinedPintAgreesOnThePairSet) {
  kernels::KernelConfig cfg;
  cfg.scale = 0.1;
  cfg.seeded_race = true;
  auto fresh = [&] {
    auto k = kernels::make_kernel(GetParam(), cfg);
    k->prepare();
    return k;
  };
  // Pipelined PINT, and the §VI sharded history on top of it.
  for (const Sys sys : {Sys::kPint1, Sys::kPintShard}) {
    auto kf = fresh();
    const RunOut fast = run_config(sys, true, true, [&] { kf->run(); });
    auto ks = fresh();
    const RunOut slow = run_config(sys, true, false, [&] { ks->run(); });
    // The detected pair SET is deterministic (queue order fixes processing
    // order), but records() keeps only the first max_records distinct
    // pairs, and on race-heavy kernels WHICH pairs land in that prefix
    // depends on reader-thread interleaving.  So the sampled pair sets are
    // only comparable when neither run hit the cap; the distinct count
    // always is.
    EXPECT_EQ(fast.distinct, slow.distinct) << "sys=" << int(sys);
    if (fast.dropped == 0 && slow.dropped == 0) {
      EXPECT_EQ(fast.pairs, slow.pairs) << "sys=" << int(sys);
    }
  }
}

TEST_P(KernelAccessPath, RaceFreeKernelStaysRaceFreeUnderTheCursor) {
  kernels::KernelConfig cfg;
  cfg.scale = 0.1;
  auto k = kernels::make_kernel(GetParam(), cfg);
  k->prepare();
  const RunOut out = run_config(Sys::kPintSeq, true, true, [&] { k->run(); });
  EXPECT_TRUE(out.full.empty()) << "cursor fast path introduced a false race";
  EXPECT_TRUE(k->verify());
}

INSTANTIATE_TEST_SUITE_P(All, KernelAccessPath,
                         ::testing::ValuesIn(kernels::kernel_names()),
                         [](const auto& info) { return info.param; });

// The lock kernels (not in kernel_names()), guarded and seeded: a lock event
// moves the fast route's cursor and the slow route's appends to the same
// sub-record, so both routes must fill the same sub-records.
class LockKernelAccessPath
    : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

TEST_P(LockKernelAccessPath, FastPathIsBitIdenticalAcrossLockSplits) {
  expect_routes_identical(std::get<0>(GetParam()), std::get<1>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    LockKernels, LockKernelAccessPath,
    ::testing::Combine(::testing::Values("lkcache", "lktwin"),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) ? "_seeded" : "_guarded");
    });

// Random series-parallel programs: denser spawn/sync structure than the
// kernels, so cursor install/invalidate churns at every boundary shape.
TEST(RandomProgramAccessPath, AllFourConfigurationsAgree) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    test::ProgramConfig pc;
    auto prog = test::ProgramGen(seed, pc).generate();
    std::vector<unsigned char> pool(test::program_pool_bytes(pc), 0);
    unsigned char* base = pool.data();
    const test::PNode* p = prog.get();
    const auto body = [p, base] { test::exec_node(*p, base); };

    // Same pool for every run, so records compare at absolute addresses.
    // Fast vs slow must agree bit-for-bit at either coalesce setting; across
    // coalesce settings only the detection VERDICT is contractual for random
    // programs (finer intervals can retain different readers in the history,
    // so the sampled pair set may differ - see report.hpp).
    const RunOut ref = run_config(Sys::kStint, true, true, body);
    const RunOut slow = run_config(Sys::kStint, true, false, body);
    EXPECT_EQ(ref.full, slow.full) << "seed=" << seed;
    const RunOut raw_fast = run_config(Sys::kStint, false, true, body);
    const RunOut raw_slow = run_config(Sys::kStint, false, false, body);
    EXPECT_EQ(raw_fast.full, raw_slow.full) << "seed=" << seed;
    EXPECT_EQ(ref.distinct > 0, raw_fast.distinct > 0) << "seed=" << seed;
    EXPECT_EQ(ref.distinct > 0,
              test::oracle_any_race(*p, test::program_pool_bytes(pc)))
        << "seed=" << seed;
    // Sharded PINT: the verdict, on both routes.
    const RunOut sh_fast = run_config(Sys::kPintShard, true, true, body);
    const RunOut sh_slow = run_config(Sys::kPintShard, true, false, body);
    EXPECT_EQ(sh_fast.distinct > 0, ref.distinct > 0) << "seed=" << seed;
    EXPECT_EQ(sh_slow.distinct > 0, ref.distinct > 0) << "seed=" << seed;
  }
}

// Regression for the measured 0.00 cursor hit rate on the sort kernel: the
// old accounting charged every interval OPEN as a miss, so sort's
// alternating merge streams (which the pending ring absorbs perfectly)
// scored zero.  Hits are now defined as raw accesses minus actual
// AccessBuffer spills; sort must score well above the BENCH_access bar.
TEST(AccessCursor, SortKernelKeepsAHighCursorHitRate) {
  kernels::KernelConfig cfg;
  cfg.scale = 0.2;  // the BENCH_access.json shape
  auto k = kernels::make_kernel("sort", cfg);
  k->prepare();
  const RunOut out = run_config(Sys::kStint, true, true, [&] { k->run(); });
  ASSERT_GT(out.stats.fastpath_accesses, 0u);
  const double rate = double(out.stats.fastpath_hits) /
                      double(out.stats.fastpath_accesses);
  EXPECT_GT(rate, 0.5) << "sort cursor hit rate regressed";
}

// Every history configuration must count the reachability queries of every
// lane it runs (STINT's inline phases, phased/pipelined writer and reader,
// sharded's per-shard lanes).  The deleted pair memo's counters stay in
// Stats for the repo benchmark and must read 0.
TEST(ReachQueries, EveryModeCountsQueriesOnAllLanes) {
  kernels::KernelConfig cfg;
  cfg.scale = 0.1;
  cfg.seeded_race = true;
  for (const Sys sys :
       {Sys::kStint, Sys::kPintSeq, Sys::kPint1, Sys::kPintShard}) {
    auto k = kernels::make_kernel("heat", cfg);
    k->prepare();
    const RunOut out = run_config(sys, true, true, [&] { k->run(); });
    EXPECT_GT(out.stats.reach_queries, 0u) << "sys=" << int(sys);
    EXPECT_EQ(out.stats.memo_queries, 0u) << "sys=" << int(sys);
    EXPECT_EQ(out.stats.memo_hits, 0u) << "sys=" << int(sys);
  }
}

}  // namespace
