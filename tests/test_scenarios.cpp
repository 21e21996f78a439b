// Scenario battery run under EVERY detector configuration (TEST_P): the
// targeted behaviours from the paper - conflicting parallel accesses of each
// kind, series edges through sync, left/right-most reader retention,
// stack-frame reuse (§III-F), and deferred heap frees (§III-F).

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common.hpp"
#include "detect/instrument.hpp"

using namespace pint;
using test::Det;
using test::DetRun;
using test::run_under;

class Scenario : public ::testing::TestWithParam<Det> {
 protected:
  DetRun run(const std::function<void()>& body) {
    return run_under(GetParam(), body);
  }
};

TEST_P(Scenario, WriteWriteRaceDetected) {
  std::vector<long> x(8, 0);
  auto r = run([&] {
    rt::SpawnScope sc;
    sc.spawn([&] { record_write(&x[0], 8); });
    record_write(&x[0], 8);
    sc.sync();
  });
  EXPECT_TRUE(r.any_race);
}

TEST_P(Scenario, ReadWriteRaceDetected) {
  std::vector<long> x(8, 0);
  auto r = run([&] {
    rt::SpawnScope sc;
    sc.spawn([&] { record_read(&x[0], 8); });
    record_write(&x[0], 8);
    sc.sync();
  });
  EXPECT_TRUE(r.any_race);
}

TEST_P(Scenario, WriteReadRaceDetected) {
  std::vector<long> x(8, 0);
  auto r = run([&] {
    rt::SpawnScope sc;
    sc.spawn([&] { record_write(&x[0], 8); });
    record_read(&x[0], 8);
    sc.sync();
  });
  EXPECT_TRUE(r.any_race);
}

TEST_P(Scenario, ReadReadIsNotARace) {
  std::vector<long> x(8, 0);
  auto r = run([&] {
    rt::SpawnScope sc;
    sc.spawn([&] { record_read(&x[0], 64); });
    sc.spawn([&] { record_read(&x[0], 64); });
    record_read(&x[0], 64);
    sc.sync();
  });
  EXPECT_FALSE(r.any_race);
}

TEST_P(Scenario, SyncCreatesSeriesEdge) {
  std::vector<long> x(8, 0);
  auto r = run([&] {
    rt::SpawnScope sc;
    sc.spawn([&] { record_write(&x[0], 8); });
    sc.sync();
    record_write(&x[0], 8);  // strictly after the child
    record_read(&x[0], 8);
  });
  EXPECT_FALSE(r.any_race);
}

TEST_P(Scenario, DisjointIntervalsDoNotRace) {
  std::vector<long> x(64, 0);
  auto r = run([&] {
    rt::SpawnScope sc;
    sc.spawn([&] { record_write(&x[0], 32 * 8); });
    record_write(&x[32], 32 * 8);
    sc.sync();
  });
  EXPECT_FALSE(r.any_race);
}

TEST_P(Scenario, PartialOverlapRaces) {
  std::vector<long> x(64, 0);
  auto r = run([&] {
    rt::SpawnScope sc;
    sc.spawn([&] { record_write(&x[0], 33 * 8); });  // one element too far
    record_write(&x[32], 32 * 8);
    sc.sync();
  });
  EXPECT_TRUE(r.any_race);
}

TEST_P(Scenario, SiblingSubtreesRace) {
  std::vector<long> x(8, 0);
  auto r = run([&] {
    rt::SpawnScope sc;
    sc.spawn([&] {
      rt::SpawnScope inner;
      inner.spawn([&] { record_write(&x[0], 8); });
      inner.sync();
    });
    sc.spawn([&] {
      rt::SpawnScope inner;
      inner.spawn([&] { record_read(&x[0], 8); });
      inner.sync();
    });
    sc.sync();
  });
  EXPECT_TRUE(r.any_race);
}

TEST_P(Scenario, NestedSyncShieldsFromSibling) {
  // Child A's subtree fully syncs internally; sibling B runs after A was
  // spawned but the accesses are parallel -> race. Then a third access after
  // the OUTER sync must not race.
  std::vector<long> x(8, 0), y(8, 0);
  auto r = run([&] {
    rt::SpawnScope sc;
    sc.spawn([&] { record_write(&y[0], 8); });
    sc.sync();
    record_read(&y[0], 8);  // in series: fine
    rt::SpawnScope sc2;
    sc2.spawn([&] { record_write(&x[0], 8); });
    sc2.sync();
    record_write(&x[0], 8);  // in series: fine
  });
  EXPECT_FALSE(r.any_race);
}

TEST_P(Scenario, ThreeParallelReadersThenWriterRaces) {
  // The 2-reader (left-most/right-most) summary must still catch a writer
  // that races with the MIDDLE reader only... by SP structure, racing with
  // the middle implies racing with an extreme, which is what the lemma
  // guarantees; here all three are in one block so all race.
  std::vector<long> x(8, 0);
  auto r = run([&] {
    rt::SpawnScope sc;
    sc.spawn([&] { record_read(&x[0], 8); });
    sc.spawn([&] { record_read(&x[0], 8); });
    sc.spawn([&] { record_read(&x[0], 8); });
    record_write(&x[0], 8);
    sc.sync();
  });
  EXPECT_TRUE(r.any_race);
}

TEST_P(Scenario, LaterSerialReaderReplacesExtremes) {
  // Paper §II: if u, v are the extreme parallel readers and w reads after
  // both (in series), w replaces them. A writer parallel to w (but after
  // u/v's sync) must still race.
  std::vector<long> x(8, 0);
  auto r = run([&] {
    {
      rt::SpawnScope sc;
      sc.spawn([&] { record_read(&x[0], 8); });
      sc.spawn([&] { record_read(&x[0], 8); });
      sc.sync();
    }
    record_read(&x[0], 8);  // w: in series after u and v
    rt::SpawnScope sc2;
    sc2.spawn([&] { record_write(&x[0], 8); });  // parallel to nothing prior? no:
    // ...this write is parallel to the continuation below, which reads x.
    record_read(&x[0], 8);
    sc2.sync();
  });
  EXPECT_TRUE(r.any_race);
}

TEST_P(Scenario, WriterThenSerialReaderNoRace) {
  std::vector<long> x(8, 0);
  auto r = run([&] {
    record_write(&x[0], 8);
    rt::SpawnScope sc;
    sc.spawn([&] { record_read(&x[0], 8); });  // after the write in series
    sc.sync();
    record_read(&x[0], 8);
  });
  EXPECT_FALSE(r.any_race);
}

TEST_P(Scenario, DeferredFreeAllowsSafeReuse) {
  // B frees a block; C (in series after the free's strand) allocates and
  // writes memory that may alias it. No race must be reported.
  auto r = run([&] {
    void* p = nullptr;
    {
      rt::SpawnScope sc;
      sc.spawn([&] {
        p = dmalloc(64);
        record_write(p, 64);
      });
      sc.sync();
    }
    dfree(p);
    // Allocate repeatedly to encourage allocator reuse of p's block.
    for (int i = 0; i < 4; ++i) {
      void* q = dmalloc(64);
      record_write(q, 64);
      dfree(q);
    }
  });
  EXPECT_FALSE(r.any_race);
}

TEST_P(Scenario, FreedThenReusedByParallelStrandStillChecked) {
  // A true race on live memory is still a race even when other memory is
  // freed around it.
  std::vector<long> x(8, 0);
  auto r = run([&] {
    void* p = dmalloc(32);
    record_write(p, 32);
    dfree(p);
    rt::SpawnScope sc;
    sc.spawn([&] { record_write(&x[0], 8); });
    record_write(&x[0], 8);
    sc.sync();
  });
  EXPECT_TRUE(r.any_race);
}

TEST_P(Scenario, ManyStrandsManyIntervalsNoFalsePositives) {
  // Volume test: lots of strands and coalescable intervals, fully disjoint.
  std::vector<long> x(4096, 0);
  auto r = run([&] {
    struct Go {
      static void rec(long* base, std::size_t n) {
        if (n <= 64) {
          record_write(base, n * sizeof(long));
          record_read(base, n * sizeof(long));
          return;
        }
        rt::SpawnScope sc;
        long* b = base;
        const std::size_t h = n / 2;
        sc.spawn([b, h] { rec(b, h); });
        rec(base + h, n - h);
        sc.sync();
        record_read(base, n * sizeof(long));  // series after both halves
      }
    };
    Go::rec(x.data(), x.size());
  });
  EXPECT_FALSE(r.any_race);
}

TEST_P(Scenario, WriteBeforeSpawnIsSeriesWithChild) {
  std::vector<long> x(8, 0);
  auto r = run([&] {
    record_write(&x[0], 8);  // strictly before the spawn
    rt::SpawnScope sc;
    sc.spawn([&] { record_read(&x[0], 8); });
    sc.sync();
  });
  EXPECT_FALSE(r.any_race);
}

TEST_P(Scenario, SecondSyncBlockIsSeriesWithFirst) {
  std::vector<long> x(8, 0);
  auto r = run([&] {
    rt::SpawnScope sc;
    sc.spawn([&] { record_write(&x[0], 8); });
    sc.sync();  // block 1 ends
    sc.spawn([&] { record_write(&x[0], 8); });  // block 2: series with block 1
    sc.sync();
  });
  EXPECT_FALSE(r.any_race);
}

TEST_P(Scenario, ChildrenOfDifferentBlocksSameScopeRaceFreeWhenDisjoint) {
  std::vector<long> x(16, 0);
  auto r = run([&] {
    rt::SpawnScope sc;
    for (int block = 0; block < 4; ++block) {
      sc.spawn([&, block] { record_write(&x[std::size_t(block * 4)], 32); });
      sc.spawn([&, block] { record_write(&x[std::size_t(block * 4)], 32); });
      sc.sync();
      // two children of one block write the same range: race... unless the
      // writes are identical-range writes by parallel strands - still a race!
    }
  });
  EXPECT_TRUE(r.any_race);
}

TEST_P(Scenario, DeepNestingSeriesChainClean) {
  std::vector<long> x(8, 0);
  auto r = run([&] {
    struct Go {
      static void rec(long* p, int depth) {
        record_write(p, 8);  // every level writes the same location...
        if (depth == 0) return;
        rt::SpawnScope sc;
        sc.spawn([p, depth] { rec(p, depth - 1); });
        sc.sync();           // ...but always in series through the sync
        record_read(p, 8);
      }
    };
    Go::rec(&x[0], 24);
  });
  EXPECT_FALSE(r.any_race);
}

TEST_P(Scenario, TheoremFiveSomePairIsAlwaysReported) {
  // Paper's Theorem 5 discussion: u reads x, w reads x (parallel extremes),
  // then v - parallel to and left of u - reads then writes x. Different
  // detectors may attribute the race to different pairs, but every detector
  // must report at least one true racing pair.
  std::vector<long> x(8, 0);
  auto r = run([&] {
    rt::SpawnScope sc;
    sc.spawn([&] { record_read(&x[0], 8); });   // u
    sc.spawn([&] { record_read(&x[0], 8); });   // w
    sc.spawn([&] {                              // v: reads then writes
      record_read(&x[0], 8);
      record_write(&x[0], 8);
    });
    sc.sync();
  });
  EXPECT_TRUE(r.any_race);
}

TEST_P(Scenario, RaceAcrossStolenContinuationBoundary) {
  // The racing access sits on a continuation strand that (under multi-worker
  // runs) is a steal candidate - exercises label/trace handling at the
  // steal boundary.
  std::vector<long> x(8, 0);
  auto r = run([&] {
    rt::SpawnScope sc;
    sc.spawn([&] {
      volatile long spin = 0;
      for (int i = 0; i < 20000; ++i) spin = spin + 1;  // invite a steal
      record_write(&x[0], 8);
    });
    record_write(&x[0], 8);  // continuation: parallel with the child
    sc.sync();
  });
  EXPECT_TRUE(r.any_race);
}

TEST_P(Scenario, ZeroLengthProgramClean) {
  auto r = run([] {});
  EXPECT_FALSE(r.any_race);
}

TEST_P(Scenario, SpawnWithNoAccessesClean) {
  auto r = run([] {
    rt::SpawnScope sc;
    for (int i = 0; i < 64; ++i) sc.spawn([] {});
    sc.sync();
  });
  EXPECT_FALSE(r.any_race);
}

TEST_P(Scenario, SingleByteOverlapIsEnough) {
  std::vector<unsigned char> x(64, 0);
  auto r = run([&] {
    rt::SpawnScope sc;
    sc.spawn([&] { record_write(&x[0], 33); });  // [0, 32]
    record_write(&x[32], 32);                    // [32, 63]: one shared byte
    sc.sync();
  });
  EXPECT_TRUE(r.any_race);
}

INSTANTIATE_TEST_SUITE_P(AllDetectors, Scenario,
                         ::testing::ValuesIn(test::all_detectors()),
                         [](const auto& info) {
                           return test::det_name(info.param);
                         });

// ---------------------------------------------------------------------------
// Stack-reuse handling (paper §III-F) - exercised with the interval
// detectors, which record accesses to the task fibers' own stacks.
// ---------------------------------------------------------------------------

namespace {

/// Task body that writes its OWN stack frame (recorded), then returns.
/// Sequential siblings reuse the pooled fiber => same addresses; parallel
/// detectors must not report a race thanks to return-node clearing.
void touch_own_stack() {
  volatile long frame[16];
  for (int i = 0; i < 16; ++i) {
    record_write(const_cast<long*>(&frame[i]), sizeof(long));
    frame[i] = i;
  }
  record_read(const_cast<long*>(&frame[0]), sizeof(frame));
}

/// Recursive spawn tree: each task writes and then reads four longs of its
/// own frame, and a parent does so again after its sync.  With several
/// core workers, tasks on different workers pick up one another's pooled
/// fibers while the traces are still uncollected.
void stack_tree(int depth) {
  volatile long frame[4];
  const auto touch = [&frame] {
    for (int i = 0; i < 4; ++i) {
      record_write(const_cast<long*>(&frame[i]), sizeof(long));
      frame[i] = i;
    }
    record_read(const_cast<long*>(&frame[0]), sizeof(frame));
  };
  touch();
  if (depth == 0) return;
  rt::SpawnScope sc;
  sc.spawn([depth] { stack_tree(depth - 1); });
  sc.spawn([depth] { stack_tree(depth - 1); });
  sc.sync();
  touch();
}

}  // namespace

TEST(StackReuseTree, PhasedSeveralCoreWorkersDoNotFalseRace) {
  // Several core workers make several traces, which the writer collects in
  // a DAG order rather than execution order: a retired fiber may be reused
  // by a strand collected before the clear of its stack, so the fiber must
  // stay held until the writer processes that clear, phased runs included.
  for (int workers : {2, 4}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      pintd::PintDetector::Options o;
      o.parallel_history = false;
      o.core_workers = workers;
      o.seed = seed;
      pintd::PintDetector det(o);
      det.run([] { stack_tree(10); });
      EXPECT_FALSE(det.reporter().any())
          << workers << " core workers, seed " << seed << ": "
          << det.reporter().distinct_races() << " races";
    }
  }
}

class StackReuse : public ::testing::TestWithParam<Det> {};

TEST_P(StackReuse, PooledFiberStacksDoNotFalseRace) {
  auto r = run_under(GetParam(), [] {
    rt::SpawnScope sc;
    for (int i = 0; i < 32; ++i) {
      sc.spawn([] { touch_own_stack(); });
      // Not syncing between spawns: the children are logically parallel and
      // (on few workers) will reuse each other's pooled fiber stacks.
    }
    sc.sync();
    for (int i = 0; i < 8; ++i) {
      sc.spawn([] { touch_own_stack(); });
      sc.sync();  // sequential reuse: B returns, C gets B's fiber
    }
  });
  EXPECT_FALSE(r.any_race);
}

INSTANTIATE_TEST_SUITE_P(AllDetectors, StackReuse,
                         ::testing::ValuesIn(test::all_detectors()),
                         [](const auto& info) {
                           return test::det_name(info.param);
                         });
