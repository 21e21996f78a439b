// Hot-path equivalence suite (DESIGN.md §13): finalize must produce the
// canonical interval set, and a detector must neither see nor keep anything
// of the instances run before it in the same process.  Checked at three
// strengths:
//
//  * finalize-level: finalize_intervals against a byte model over
//    adversarial interval shapes (near-zero addresses, addresses that wrap
//    past kMaxAddr and ranges ending on it, wide spreads, nested / adjacent
//    / duplicate intervals) - identical canonical output;
//  * whole-detector: race RECORDS bit-identical between two instances run
//    back to back on the deterministic detectors (STINT, phased one-core
//    PINT), on the kernel suite and on random series-parallel programs
//    (which must also match the oracle); pipelined / sharded PINT agree on
//    the verdict (same caveat as test_access_path.cpp);
//  * retention: five back-to-back instances leave the heap where the first
//    one left it - each detector frees what it allocated (DESIGN.md §13.1) -
//    and a one-core-worker PINT run returns freed blocks at strand end
//    (DESIGN.md §6.2).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <tuple>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common.hpp"
#include "detect/tuning.hpp"
#include "detect/types.hpp"
#include "kernels/kernels.hpp"
#include "support/sanitizer.hpp"

using namespace pint;

namespace {

constexpr detect::addr_t kMaxAddr = ~detect::addr_t(0);

// ---------------------------------------------------------------------------
// finalize_intervals against a byte model
// ---------------------------------------------------------------------------

std::vector<detect::Interval> finalized(std::vector<detect::Interval> v,
                                        detect::FinalizePath* path = nullptr) {
  const detect::FinalizePath p = detect::finalize_intervals(v);
  if (path != nullptr) *path = p;
  return v;
}

/// The bytes `v` covers, as maximal runs: exact per byte, but evaluated per
/// elementary segment (every lo and hi + 1 cuts the address line; a segment
/// is covered iff some interval holds it).  Ends are 128-bit, so a range
/// reaching kMaxAddr needs no wrap.  Shares no code with the merge loop.
std::vector<detect::Interval> byte_model(
    const std::vector<detect::Interval>& v) {
  using u128 = unsigned __int128;
  std::vector<u128> cuts;
  for (const detect::Interval& iv : v) {
    cuts.push_back(iv.lo);
    cuts.push_back(u128(iv.hi) + 1);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  auto at = [&](u128 x) {
    return std::lower_bound(cuts.begin(), cuts.end(), x) - cuts.begin();
  };
  std::vector<int> delta(cuts.size(), 0);
  for (const detect::Interval& iv : v) {
    ++delta[at(iv.lo)];
    --delta[at(u128(iv.hi) + 1)];
  }
  std::vector<detect::Interval> out;
  int depth = 0;
  bool open = false;
  for (std::size_t k = 0; k + 1 < cuts.size(); ++k) {
    depth += delta[k];
    const bool covered = depth > 0;
    if (covered && !open) out.push_back({detect::addr_t(cuts[k]), 0});
    if (covered) out.back().hi = detect::addr_t(cuts[k + 1] - 1);
    open = covered;
  }
  return out;
}

TEST(Finalize, FuzzMatchesTheByteModelOnAdversarialShapes) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Xoshiro256 rng(seed);
    const std::size_t n = 16 + rng.next_below(2048);
    // Base region: near zero, near kMaxAddr (offsets wrap past it), or a
    // huge random offset (wide spread).
    std::uint64_t base;
    switch (seed % 3) {
      case 0: base = rng.next_below(64); break;
      case 1: base = kMaxAddr - (1 << 16); break;
      default: base = rng.next() >> 1; break;
    }
    const std::uint64_t span =
        (seed % 4 == 0) ? (std::uint64_t(1) << 40)  // sparse: wide spread
                        : (1 << 12);                // dense: heavy overlap
    std::vector<detect::Interval> v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t lo = base + rng.next_below(span);
      std::uint64_t len = rng.next_below(3) == 0
                              ? rng.next_below(span / 4 + 1)  // nested-prone
                              : rng.next_below(16);           // small
      if (lo > kMaxAddr - len) len = kMaxAddr - lo;
      v.push_back({lo, lo + len});
    }
    if (seed % 3 == 1) {
      // Ranges ending on kMaxAddr, where hi + 1 wraps to 0, each with
      // ranges inside it that sort after it.
      for (int i = 0; i < 4; ++i) {
        const std::uint64_t lo = kMaxAddr - rng.next_below(1 << 10);
        v.push_back({lo, kMaxAddr});
        v.push_back({lo + 1, lo + 1});
        v.push_back({lo, lo});
      }
    }
    if (seed % 5 == 0) std::sort(v.begin(), v.end(), [](auto& a, auto& b) {
      return a.lo < b.lo;
    });
    if (seed % 7 == 0) {  // duplicates
      for (std::size_t i = 1; i < v.size(); i += 4) v[i] = v[i - 1];
    }
    detect::FinalizePath path;
    const auto got = finalized(v, &path);
    ASSERT_EQ(got, byte_model(v)) << "seed=" << seed << " n=" << v.size();
    const bool sorted = std::is_sorted(
        v.begin(), v.end(), [](auto& a, auto& b) { return a.lo < b.lo; });
    EXPECT_EQ(path, sorted ? detect::FinalizePath::kSorted
                           : detect::FinalizePath::kScalar)
        << "seed=" << seed;
  }
}

TEST(Finalize, AdjacentAndContainedIntervalsCollapse) {
  // Exact-adjacency chains and full containment are the merge loop's edge
  // rules; both must produce the single collapsed interval.
  std::vector<detect::Interval> v;
  for (std::uint64_t i = 0; i < 64; ++i) v.push_back({i * 8, i * 8 + 7});
  for (std::uint64_t i = 0; i < 32; ++i) v.push_back({i * 16 + 2, i * 16 + 4});
  const auto out = finalized(v);
  EXPECT_EQ(out, byte_model(v));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].lo, 0u);
  EXPECT_EQ(out[0].hi, 64 * 8 - 1);
}

TEST(Finalize, MaxAddrEndpointsSurvive) {
  std::vector<detect::Interval> v;
  for (std::uint64_t i = 0; i < 48; ++i) {
    v.push_back({kMaxAddr - 1000 + i * 20, kMaxAddr - 1000 + i * 20 + 9});
  }
  v.push_back({kMaxAddr - 5, kMaxAddr});
  v.push_back({0, 3});  // the full address spread in one buffer
  const auto out = finalized(v);
  EXPECT_EQ(out, byte_model(v));
  EXPECT_EQ(out.back().hi, kMaxAddr);
  EXPECT_EQ(out.front().lo, 0u);
}

TEST(Finalize, AlreadySortedInputSkipsTheSort) {
  std::vector<detect::Interval> v;
  for (std::uint64_t i = 0; i < 64; ++i) v.push_back({i * 100, i * 100 + 10});
  detect::FinalizePath p;
  const auto out = finalized(v, &p);
  EXPECT_EQ(p, detect::FinalizePath::kSorted);
  EXPECT_EQ(out.size(), 64u);  // disjoint: nothing merges
}

// ---------------------------------------------------------------------------
// Whole-detector bit-identity across instances
// ---------------------------------------------------------------------------

// Full record: (prev_sid, cur_sid, prev_write, cur_write, lo, hi).
using FullRecord = std::tuple<std::uint64_t, std::uint64_t, int, int,
                              std::uint64_t, std::uint64_t>;
using PairKey = std::tuple<std::uint64_t, std::uint64_t, int, int>;

enum class Sys { kStint, kPintSeq, kPint1, kShard3 };

struct RunOut {
  std::vector<FullRecord> rebased;
  std::vector<PairKey> pairs;
  std::uint64_t distinct = 0;
  std::uint64_t dropped = 0;
  detect::Stats::Snapshot stats{};
};

RunOut summarize(const detect::RaceReporter& rep, const detect::Stats& stats) {
  RunOut out;
  std::uint64_t min_lo = ~std::uint64_t(0);
  std::vector<FullRecord> full;
  for (const detect::RaceRecord& r : rep.records()) {
    full.push_back(
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
  std::sort(full.begin(), full.end());
  out.rebased = std::move(full);
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

RunOut run_config(Sys sys, const std::function<void()>& body,
                  std::uint64_t seed = 7) {
  if (sys == Sys::kStint) {
    stint::StintDetector::Options o;
    o.seed = seed;
    stint::StintDetector det(o);
    det.run(body);
    return summarize(det.reporter(), det.stats());
  }
  pintd::PintDetector::Options o;
  o.seed = seed;
  o.parallel_history = sys != Sys::kPintSeq;
  o.core_workers = 1;  // deterministic strand ids (see test_bulk_apply.cpp)
  if (sys == Sys::kShard3) o.history_shards = 3;
  pintd::PintDetector det(o);
  det.run(body);
  return summarize(det.reporter(), det.stats());
}

class KernelHotpathKnobs : public ::testing::TestWithParam<std::string> {};

TEST_P(KernelHotpathKnobs, BackToBackInstancesAreBitIdentical) {
  kernels::KernelConfig cfg;
  cfg.scale = 0.1;
  cfg.seeded_race = true;  // non-trivial race sets to compare
  for (Sys sys : {Sys::kStint, Sys::kPintSeq}) {
    auto fresh = [&] {
      auto k = kernels::make_kernel(GetParam(), cfg);
      k->prepare();
      return k;
    };
    auto kr = fresh();
    const RunOut ref = run_config(sys, [&] { kr->run(); });
    auto kf = fresh();
    const RunOut out = run_config(sys, [&] { kf->run(); });
    EXPECT_EQ(ref.rebased, out.rebased) << "records diverge, sys=" << int(sys);
    EXPECT_EQ(ref.distinct, out.distinct);
  }
}

TEST_P(KernelHotpathKnobs, PipelinedAndShardedAgreeOnTheVerdict) {
  kernels::KernelConfig cfg;
  cfg.scale = 0.1;
  cfg.seeded_race = true;
  for (Sys sys : {Sys::kPint1, Sys::kShard3}) {
    auto fresh = [&] {
      auto k = kernels::make_kernel(GetParam(), cfg);
      k->prepare();
      return k;
    };
    auto kr = fresh();
    const RunOut ref = run_config(sys, [&] { kr->run(); });
    auto kf = fresh();
    const RunOut out = run_config(sys, [&] { kf->run(); });
    EXPECT_EQ(ref.distinct, out.distinct) << "sys=" << int(sys);
    if (ref.dropped == 0 && out.dropped == 0) {
      EXPECT_EQ(ref.pairs, out.pairs) << "sys=" << int(sys);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(All, KernelHotpathKnobs,
                         ::testing::ValuesIn(kernels::kernel_names()),
                         [](const auto& info) { return info.param; });

// Two instances on random series-parallel programs: cheap enough to compare
// bit-exactly (same pool address every run, so the rebase is the identity).
void expect_instances_agree_with_the_oracle(Sys sys, std::uint64_t first,
                                            std::uint64_t last) {
  for (std::uint64_t seed = first; seed <= last; ++seed) {
    test::ProgramConfig pc;
    auto prog = test::ProgramGen(seed, pc).generate();
    std::vector<unsigned char> pool(test::program_pool_bytes(pc), 0);
    unsigned char* base = pool.data();
    const test::PNode* p = prog.get();
    const auto body = [p, base] { test::exec_node(*p, base); };

    const RunOut ref = run_config(sys, body);
    const RunOut out = run_config(sys, body);
    EXPECT_EQ(ref.rebased, out.rebased) << "seed=" << seed;
    EXPECT_EQ(ref.distinct, out.distinct) << "seed=" << seed;
    EXPECT_EQ(ref.distinct > 0,
              test::oracle_any_race(*p, test::program_pool_bytes(pc)))
        << "seed=" << seed;
  }
}

TEST(RandomProgramHotpathKnobs, StintInstancesAgreeAndMatchTheOracle) {
  expect_instances_agree_with_the_oracle(Sys::kStint, 1, 10);
}

TEST(RandomProgramHotpathKnobs, PhasedPintInstancesAgreeAndMatchTheOracle) {
  expect_instances_agree_with_the_oracle(Sys::kPintSeq, 11, 16);
}

// ---------------------------------------------------------------------------
// Retention: a detector frees what it allocated
// ---------------------------------------------------------------------------

TEST(Retention, BackToBackInstancesReturnTheHeap) {
#if defined(PINT_TSAN) || defined(PINT_ASAN) || !defined(__GLIBC__)
  // The sanitizer allocators replace malloc (LeakSanitizer covers the ASan
  // lane); mallinfo2 is glibc's.
  GTEST_SKIP() << "needs glibc malloc";
#else
  // Five instances each of STINT, phased PINT and pipelined PINT, one after
  // the other.  The level after the very first absorbs one-time growth
  // (thread locals, lazily built tables); after every later instance the
  // heap must be back at it, whichever detector ran.  A process-wide
  // recycler that parked retired strands, traces and store chunks for the
  // next instance left 0.8-1.1 MB here from the first PINT instance on,
  // growing with each one.
  constexpr std::size_t kSlack = std::size_t(256) << 10;
  kernels::KernelConfig cfg;
  cfg.scale = 1.0;
  std::size_t first = 0;
  for (Sys sys : {Sys::kStint, Sys::kPintSeq, Sys::kPint1}) {
    for (int i = 0; i < 5; ++i) {
      {
        auto k = kernels::make_kernel("sort", cfg);
        k->prepare();
        const RunOut out = run_config(sys, [&] { k->run(); });
        EXPECT_EQ(out.distinct, 0u) << "sys=" << int(sys);
      }
      // Bytes malloc has handed out and not had back, over all arenas;
      // thread caches count as in use, so a few KiB of noise remain.
      const std::size_t now = mallinfo2().uordblks;
      if (first == 0) {
        first = now;
        continue;
      }
      EXPECT_LE(now, first + kSlack)
          << "sys=" << int(sys) << " instance " << i << " left "
          << (now - first) << " bytes above the first";
    }
  }
#endif
}

TEST(Retention, OneCoreWorkerFreesHeapBlocksAtStrandEnd) {
#if defined(PINT_TSAN) || defined(PINT_ASAN) || !defined(__GLIBC__)
  // ASan quarantines freed blocks; mallinfo2 is glibc's.
  GTEST_SKIP() << "needs glibc malloc";
#else
  // One core worker runs one trace, so a freed block goes back to malloc
  // when its strand ends, not when the writer gets to that strand.  64
  // serial tasks each allocate, write and free 64 KiB: the heap sampled
  // inside the loop must stay near where it started, phased (where the
  // writer runs only after the whole core phase) and pipelined alike.
  // Holding every block until the writer would add at least 4 MiB.
  constexpr std::size_t kBlock = std::size_t(64) << 10;
  constexpr std::size_t kSlack = std::size_t(512) << 10;
  for (bool parallel : {false, true}) {
    pintd::PintDetector::Options o;
    o.core_workers = 1;
    o.parallel_history = parallel;
    pintd::PintDetector det(o);
    std::size_t start = 0, peak = 0;
    det.run([&] {
      start = peak = mallinfo2().uordblks;
      rt::SpawnScope sc;
      for (int i = 0; i < 64; ++i) {
        sc.spawn([] {
          void* p = dmalloc(kBlock);
          record_write(p, kBlock);
          dfree(p);
        });
        sc.sync();
        peak = std::max(peak, mallinfo2().uordblks);
      }
    });
    EXPECT_FALSE(det.reporter().any());
    EXPECT_LT(peak - start, kSlack)
        << (parallel ? "pipelined" : "phased") << " run held "
        << (peak - start) << " heap bytes";
  }
#endif
}

TEST(TuningKnobs, DefaultsMatchTheDocumentedContract) {
  const detect::Tuning t;
  EXPECT_TRUE(t.access_fast_path);
  EXPECT_TRUE(t.lock_edges);
}

}  // namespace
