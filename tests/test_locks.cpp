// Lockset matrix (DESIGN.md §12): mutex-guarded programs must report ZERO
// races with lock edges on, their unguarded twins must keep racing, and the
// verdicts must agree across every detector and history mode.  Also covers
// the LocksetTable itself and memo bit-identity with lock edges enabled.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common.hpp"
#include "detect/lockset.hpp"
#include "kernels/kernels.hpp"
#include "oracle/oracle_detector.hpp"
#include "pint/pint_detector.hpp"
#include "stint/stint_detector.hpp"

namespace pint::test {
namespace {

// ---------------------------------------------------------------------------
// LocksetTable unit tests
// ---------------------------------------------------------------------------

TEST(LocksetTable, AcquireReleaseRoundTrip) {
  auto& tbl = detect::LocksetTable::instance();
  // Distinct addresses per test so the process-wide table stays inert
  // across tests.
  static int mva, mvb;
  const auto a = detect::addr_of(&mva), b = detect::addr_of(&mvb);

  const detect::lockset_t s1 = tbl.acquire(0, a);
  ASSERT_NE(s1, 0u);
  EXPECT_EQ(tbl.locks(s1), std::vector<detect::addr_t>({a}));

  const detect::lockset_t s2 = tbl.acquire(s1, b);
  ASSERT_NE(s2, 0u);
  ASSERT_NE(s2, s1);
  EXPECT_EQ(tbl.locks(s2).size(), 2u);

  // Releasing returns the interned predecessor ids, ending at empty (0).
  EXPECT_EQ(tbl.release(s2, b), s1);
  EXPECT_EQ(tbl.release(s1, a), 0u);

  // Interning is canonical: the same set always gets the same id.
  EXPECT_EQ(tbl.acquire(0, a), s1);
  EXPECT_EQ(tbl.acquire(s1, b), s2);
  // Acquire order does not matter (sets, not sequences).
  const detect::lockset_t sb = tbl.acquire(0, b);
  EXPECT_EQ(tbl.acquire(sb, a), s2);
}

TEST(LocksetTable, RecursiveAndUnmatchedAreNoOps) {
  auto& tbl = detect::LocksetTable::instance();
  static int mv;
  const auto a = detect::addr_of(&mv);
  const detect::lockset_t s1 = tbl.acquire(0, a);
  EXPECT_EQ(tbl.acquire(s1, a), s1);  // recursive re-acquire
  EXPECT_EQ(tbl.release(0, a), 0u);   // unmatched release of empty
  EXPECT_EQ(tbl.release(s1, a), 0u);
  static int other;
  EXPECT_EQ(tbl.release(s1, detect::addr_of(&other)), s1);  // not held
}

TEST(LocksetTable, Intersects) {
  auto& tbl = detect::LocksetTable::instance();
  static int mva, mvb, mvc;
  const auto a = detect::addr_of(&mva), b = detect::addr_of(&mvb),
             c = detect::addr_of(&mvc);
  const auto sa = tbl.acquire(0, a);
  const auto sb = tbl.acquire(0, b);
  const auto sab = tbl.acquire(sa, b);
  const auto sc = tbl.acquire(0, c);

  EXPECT_FALSE(detect::locksets_share(0, sa));
  EXPECT_FALSE(detect::locksets_share(sa, 0));
  EXPECT_TRUE(detect::locksets_share(sa, sa));
  EXPECT_FALSE(detect::locksets_share(sa, sb));
  EXPECT_TRUE(detect::locksets_share(sa, sab));
  EXPECT_TRUE(detect::locksets_share(sb, sab));
  EXPECT_FALSE(detect::locksets_share(sc, sab));
  // Memoized second query must agree.
  EXPECT_TRUE(detect::locksets_share(sa, sab));
  EXPECT_FALSE(detect::locksets_share(sc, sab));
}

// ---------------------------------------------------------------------------
// Guarded / unguarded twin matrix
// ---------------------------------------------------------------------------

DetRun run_kernel_under(Det d, const char* kernel, bool seeded,
                        std::uint64_t seed = 7) {
  kernels::KernelConfig kc;
  kc.scale = 0.5;
  kc.seeded_race = seeded;
  auto k = kernels::make_kernel(kernel, kc);
  k->prepare();
  DetRun r = run_under(d, [&] { k->run(); }, seed);
  if (!seeded) {
    EXPECT_TRUE(k->verify()) << kernel << " under " << det_name(d);
  }
  return r;
}

TEST(LockMatrix, GuardedTwinIsRaceFreeEverywhere) {
  for (Det d : all_detectors()) {
    const DetRun r = run_kernel_under(d, "lktwin", /*seeded=*/false);
    EXPECT_FALSE(r.any_race) << "guarded lktwin raced under " << det_name(d);
    EXPECT_EQ(r.distinct, 0u) << det_name(d);
  }
}

TEST(LockMatrix, UnguardedTwinRacesEverywhere) {
  for (Det d : all_detectors()) {
    const DetRun r = run_kernel_under(d, "lktwin", /*seeded=*/true);
    EXPECT_TRUE(r.any_race) << "unguarded lktwin missed under " << det_name(d);
  }
}

TEST(LockMatrix, GuardedCacheIsRaceFreeEverywhere) {
  for (Det d : all_detectors()) {
    const DetRun r = run_kernel_under(d, "lkcache", /*seeded=*/false);
    EXPECT_FALSE(r.any_race) << "guarded lkcache raced under " << det_name(d);
  }
}

TEST(LockMatrix, RacyCacheRacesEverywhere) {
  for (Det d : all_detectors()) {
    const DetRun r = run_kernel_under(d, "lkcache", /*seeded=*/true);
    EXPECT_TRUE(r.any_race) << "racy lkcache missed under " << det_name(d);
  }
}

TEST(LockMatrix, OracleAgreesOnBothTwins) {
  for (bool seeded : {false, true}) {
    kernels::KernelConfig kc;
    kc.scale = 0.5;
    kc.seeded_race = seeded;
    auto k = kernels::make_kernel("lktwin", kc);
    k->prepare();
    oracle::OracleDetector det;
    det.run([&] { k->run(); });
    EXPECT_EQ(det.any_race(), seeded) << (seeded ? "unguarded" : "guarded");
  }
}

// ---------------------------------------------------------------------------
// Ablations: the filter is load-bearing, and switchable
// ---------------------------------------------------------------------------

TEST(LockAblation, LockEdgesOffRestoresTheForkJoinVerdict) {
  // With lock edges disabled the guarded twin is indistinguishable from the
  // unguarded one: pure fork-join reachability must flag it.
  kernels::KernelConfig kc;
  kc.scale = 0.5;
  auto k = kernels::make_kernel("lktwin", kc);
  k->prepare();
  stint::StintDetector::Options o;
  o.tuning.lock_edges = false;
  stint::StintDetector det(o);
  det.run([&] { k->run(); });
  EXPECT_TRUE(det.reporter().any());
}

TEST(LockAblation, LockEdgesOffUnderPint) {
  kernels::KernelConfig kc;
  kc.scale = 0.5;
  auto k = kernels::make_kernel("lktwin", kc);
  k->prepare();
  pintd::PintDetector::Options o;
  o.core_workers = 2;
  o.tuning.lock_edges = false;
  pintd::PintDetector det(o);
  det.run([&] { k->run(); });
  EXPECT_TRUE(det.reporter().any());
}

TEST(LockAblation, EnvSpecTogglesLockEdges) {
  detect::Tuning t;  // defaults
  t = detect::Tuning::parse("locks=off", t);
  EXPECT_FALSE(t.lock_edges);
  t = detect::Tuning::parse("locks=on,memo=off", t);
  EXPECT_TRUE(t.lock_edges);
  EXPECT_FALSE(t.memo);
  // The removed cursor= key is ignored (warn-once); the other keys apply.
  detect::Tuning want;
  want.memo = false;
  EXPECT_EQ(detect::Tuning::parse("cursor=wide,memo=off", detect::Tuning{}),
            want);
}

// ---------------------------------------------------------------------------
// Memo bit-identity with lock edges on
// ---------------------------------------------------------------------------

TEST(LockMemo, MemoOnOffBitIdenticalWithLockEdges) {
  // The memo may change the cost of reachability queries, never a verdict -
  // including across the lockset strand splits (same-label segments).  The
  // racy cache has a rich mix of guarded and unguarded pairs.
  for (bool seeded : {false, true}) {
    std::uint64_t base_races = ~std::uint64_t(0);
    for (bool memo : {true, false}) {
      kernels::KernelConfig kc;
      kc.scale = 0.5;
      kc.seeded_race = seeded;
      auto k = kernels::make_kernel("lkcache", kc);
      k->prepare();
      stint::StintDetector::Options o;
      o.tuning.memo = memo;
      stint::StintDetector det(o);
      det.run([&] { k->run(); });
      const std::uint64_t got = det.reporter().distinct_races();
      if (base_races == ~std::uint64_t(0)) {
        base_races = got;
      } else {
        EXPECT_EQ(got, base_races)
            << "memo changed the race set (seeded=" << seeded << ")";
      }
      if (!memo) {
        EXPECT_EQ(det.stats().memo_queries.load(), 0u);
      }
    }
    if (seeded) EXPECT_GT(base_races, 0u);
    if (!seeded) EXPECT_EQ(base_races, 0u);
  }
}

TEST(LockMemo, PintShardedMemoBitIdenticalWithLockEdges) {
  for (bool memo : {true, false}) {
    kernels::KernelConfig kc;
    kc.scale = 0.5;
    kc.seeded_race = true;
    auto k = kernels::make_kernel("lktwin", kc);
    k->prepare();
    pintd::PintDetector::Options o;
    o.core_workers = 2;
    o.history_shards = 3;
    o.tuning.memo = memo;
    pintd::PintDetector det(o);
    det.run([&] { k->run(); });
    EXPECT_TRUE(det.reporter().any());
    if (!memo) EXPECT_EQ(det.stats().memo_queries.load(), 0u);
  }
}

}  // namespace
}  // namespace pint::test
