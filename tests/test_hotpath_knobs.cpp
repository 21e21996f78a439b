// Hot-path knob equivalence suite (DESIGN.md §13): the arena recycler and
// the SIMD finalize are pure mechanism - they must be invisible to
// detection results.  Checked at two strengths:
//
//  * finalize-level: finalize_intervals with the SIMD knob on vs off over
//    adversarial interval shapes (radix-path sizes, near-zero and
//    near-kMaxAddr addresses exercising the sign-bias trick, nested /
//    adjacent / duplicate intervals) - identical canonical output;
//  * whole-detector: race RECORDS bit-identical on the deterministic
//    detectors (STINT, phased one-core PINT) for every single-knob flip on
//    the kernel suite and for the full 2^2 knob cross-product on random
//    series-parallel programs; pipelined / sharded PINT agree on the
//    verdict (same caveat as test_access_path.cpp).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <tuple>
#include <vector>

#include "common.hpp"
#include "detect/tuning.hpp"
#include "detect/types.hpp"
#include "kernels/kernels.hpp"
#include "support/arena.hpp"

using namespace pint;

namespace {

constexpr detect::addr_t kMaxAddr = ~detect::addr_t(0);

// ---------------------------------------------------------------------------
// finalize_intervals: SIMD vs scalar fuzz
// ---------------------------------------------------------------------------

// RAII: restore the global SIMD knob flipped by these tests.
struct SimdGuard {
  bool saved = detect::simd_merge();
  ~SimdGuard() { detect::set_simd_merge(saved); }
};

std::vector<detect::Interval> finalize_with(std::vector<detect::Interval> v,
                                            bool simd,
                                            detect::FinalizePath* path) {
  SimdGuard g;
  detect::set_simd_merge(simd);
  const detect::FinalizePath p = detect::finalize_intervals(v);
  if (path != nullptr) *path = p;
  return v;
}

void check_canonical(const std::vector<detect::Interval>& v) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    ASSERT_LE(v[i].lo, v[i].hi);
    // Minimal: neighbors neither overlap nor touch (adjacent would have
    // been merged into one interval).
    if (i > 0) {
      ASSERT_GT(v[i].lo, v[i - 1].hi + 1);
    }
  }
}

TEST(SimdFinalize, FuzzMatchesScalarOnAdversarialShapes) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Xoshiro256 rng(seed);
    // Size straddles the kSimdMin=32 dispatch bar and goes well past it.
    const std::size_t n = 16 + rng.next_below(2048);
    // Base region: near zero, near kMaxAddr (sign-bias XOR coverage), or a
    // huge random offset (wide radix spread).
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
    if (seed % 5 == 0) std::sort(v.begin(), v.end(), [](auto& a, auto& b) {
      return a.lo < b.lo;
    });
    if (seed % 7 == 0) {  // duplicates
      for (std::size_t i = 1; i < v.size(); i += 4) v[i] = v[i - 1];
    }
    detect::FinalizePath p_on, p_off;
    const auto simd = finalize_with(v, true, &p_on);
    const auto scalar = finalize_with(v, false, &p_off);
    ASSERT_EQ(simd, scalar) << "seed=" << seed << " n=" << n;
    check_canonical(simd);
    EXPECT_NE(p_off, detect::FinalizePath::kSimd) << "knob off took SIMD";
  }
}

TEST(SimdFinalize, AdjacentAndContainedIntervalsCollapse) {
  // Exact-adjacency chains and full containment are the merge loop's edge
  // rules; both paths must produce the single collapsed interval.
  std::vector<detect::Interval> v;
  for (std::uint64_t i = 0; i < 64; ++i) v.push_back({i * 8, i * 8 + 7});
  for (std::uint64_t i = 0; i < 32; ++i) v.push_back({i * 16 + 2, i * 16 + 4});
  const auto on = finalize_with(v, true, nullptr);
  const auto off = finalize_with(v, false, nullptr);
  EXPECT_EQ(on, off);
  ASSERT_EQ(on.size(), 1u);
  EXPECT_EQ(on[0].lo, 0u);
  EXPECT_EQ(on[0].hi, 64 * 8 - 1);
}

TEST(SimdFinalize, MaxAddrEndpointsSurviveBothPaths) {
  std::vector<detect::Interval> v;
  for (std::uint64_t i = 0; i < 48; ++i) {
    v.push_back({kMaxAddr - 1000 + i * 20, kMaxAddr - 1000 + i * 20 + 9});
  }
  v.push_back({kMaxAddr - 5, kMaxAddr});
  v.push_back({0, 3});  // forces the full radix spread in one buffer
  const auto on = finalize_with(v, true, nullptr);
  const auto off = finalize_with(v, false, nullptr);
  EXPECT_EQ(on, off);
  check_canonical(on);
  EXPECT_EQ(on.back().hi, kMaxAddr);
  EXPECT_EQ(on.front().lo, 0u);
}

TEST(SimdFinalize, AlreadySortedInputSkipsTheSort) {
  std::vector<detect::Interval> v;
  for (std::uint64_t i = 0; i < 64; ++i) v.push_back({i * 100, i * 100 + 10});
  detect::FinalizePath p;
  const auto out = finalize_with(v, true, &p);
  EXPECT_EQ(p, detect::FinalizePath::kSorted);
  EXPECT_EQ(out.size(), 64u);  // disjoint: nothing merges
}

// ---------------------------------------------------------------------------
// Whole-detector knob bit-identity
// ---------------------------------------------------------------------------

// RAII: tests push Tuning combos into the process globals via the detector's
// apply_globals(); never leak the settings.
struct TuningGuard {
  detect::Tuning saved = detect::Tuning::current();
  ~TuningGuard() { saved.apply_globals(); }
};

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

struct Knobs {
  bool arena, simd;
};

RunOut run_config(Sys sys, Knobs k, const std::function<void()>& body,
                  std::uint64_t seed = 7) {
  TuningGuard g;
  detect::Tuning t = g.saved;
  t.arena = k.arena;
  t.simd = k.simd;
  if (sys == Sys::kStint) {
    stint::StintDetector::Options o;
    o.seed = seed;
    o.tuning = t;
    stint::StintDetector det(o);
    det.run(body);
    return summarize(det.reporter(), det.stats());
  }
  pintd::PintDetector::Options o;
  o.seed = seed;
  o.tuning = t;
  o.parallel_history = sys != Sys::kPintSeq;
  o.core_workers = 1;  // deterministic strand ids (see test_bulk_apply.cpp)
  if (sys == Sys::kShard3) o.history_shards = 3;
  pintd::PintDetector det(o);
  det.run(body);
  return summarize(det.reporter(), det.stats());
}

const Knobs kDefaults = {true, true};

class KernelHotpathKnobs : public ::testing::TestWithParam<std::string> {};

TEST_P(KernelHotpathKnobs, SingleKnobFlipsAreBitIdentical) {
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
    const RunOut ref = run_config(sys, kDefaults, [&] { kr->run(); });
    const Knobs flips[] = {
        {false, true},  // arena off
        {true, false},  // simd off
    };
    for (const Knobs& k : flips) {
      auto kf = fresh();
      const RunOut out = run_config(sys, k, [&] { kf->run(); });
      EXPECT_EQ(ref.rebased, out.rebased)
          << "records diverge, sys=" << int(sys) << " arena=" << k.arena
          << " simd=" << k.simd;
      EXPECT_EQ(ref.distinct, out.distinct);
      if (!k.simd) {
        EXPECT_EQ(out.stats.finalize_simd, 0u) << "simd off still vectorized";
      }
      if (!k.arena) {
        EXPECT_EQ(out.stats.arena_reuses, 0u) << "arena off still recycled";
      }
    }
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
    const RunOut ref = run_config(sys, kDefaults, [&] { kr->run(); });
    auto kf = fresh();
    const RunOut out = run_config(sys, {false, false}, [&] { kf->run(); });
    EXPECT_EQ(ref.distinct, out.distinct) << "sys=" << int(sys);
    if (ref.dropped == 0 && out.dropped == 0) {
      EXPECT_EQ(ref.pairs, out.pairs) << "sys=" << int(sys);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(All, KernelHotpathKnobs,
                         ::testing::ValuesIn(kernels::kernel_names()),
                         [](const auto& info) { return info.param; });

// The full 2^2 cross-product on random series-parallel programs: cheap
// enough to run every combination bit-exactly (same pool address every run,
// so the rebase is the identity).
TEST(RandomProgramHotpathKnobs, AllKnobCombosAgreeAndMatchTheOracle) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    test::ProgramConfig pc;
    auto prog = test::ProgramGen(seed, pc).generate();
    std::vector<unsigned char> pool(test::program_pool_bytes(pc), 0);
    unsigned char* base = pool.data();
    const test::PNode* p = prog.get();
    const auto body = [p, base] { test::exec_node(*p, base); };

    const RunOut ref = run_config(Sys::kStint, kDefaults, body);
    for (int mask = 0; mask < 4; ++mask) {
      const Knobs k = {(mask & 1) != 0, (mask & 2) != 0};
      const RunOut out = run_config(Sys::kStint, k, body);
      EXPECT_EQ(ref.rebased, out.rebased)
          << "seed=" << seed << " arena=" << k.arena << " simd=" << k.simd;
      EXPECT_EQ(ref.distinct, out.distinct) << "seed=" << seed;
    }
    EXPECT_EQ(ref.distinct > 0,
              test::oracle_any_race(*p, test::program_pool_bytes(pc)))
        << "seed=" << seed;
  }
}

TEST(RandomProgramHotpathKnobs, PhasedPintFullCrossProduct) {
  for (std::uint64_t seed = 11; seed <= 16; ++seed) {
    test::ProgramConfig pc;
    auto prog = test::ProgramGen(seed, pc).generate();
    std::vector<unsigned char> pool(test::program_pool_bytes(pc), 0);
    unsigned char* base = pool.data();
    const test::PNode* p = prog.get();
    const auto body = [p, base] { test::exec_node(*p, base); };

    const RunOut ref = run_config(Sys::kPintSeq, kDefaults, body);
    for (int mask = 0; mask < 4; ++mask) {
      const Knobs k = {(mask & 1) != 0, (mask & 2) != 0};
      const RunOut out = run_config(Sys::kPintSeq, k, body);
      EXPECT_EQ(ref.rebased, out.rebased)
          << "seed=" << seed << " arena=" << k.arena << " simd=" << k.simd;
    }
  }
}

TEST(ArenaKnob, RecyclerActuallyReusesAcrossDetectorInstances) {
  // Two arena-on runs back to back: the second draws its strand records
  // from the recycler the first retired into.  (Process-wide counters; the
  // per-run stats field is the delta, see pint_detector.cpp.)
  kernels::KernelConfig cfg;
  cfg.scale = 0.05;
  auto body = [&](const char* name) {
    auto k = kernels::make_kernel(name, cfg);
    k->prepare();
    return run_config(Sys::kStint, kDefaults, [&] { k->run(); });
  };
  (void)body("sort");  // warm the recycler
  const RunOut second = body("sort");
  EXPECT_GT(second.stats.arena_reuses, 0u)
      << "second arena-on run allocated everything fresh";
}

TEST(TuningKnobs, DefaultsMatchTheDocumentedContract) {
  const detect::Tuning t;
  EXPECT_TRUE(t.arena);   // recycling on: provenance only, never bytes
  EXPECT_TRUE(t.simd);    // on: bit-identical scalar fallback exists
}

}  // namespace
