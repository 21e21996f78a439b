// Fault-injection suite (label: faults): exercises the named fail points,
// the pipeline watchdog, and the graceful-degradation paths of
// PintDetector::run().  Everything here is deterministic - prob-mode points
// are seeded and counter-keyed - so the suite gives the same verdict run
// after run, in plain, TSan, and ASan builds.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "pint/pool.hpp"
#include "support/error_sink.hpp"
#include "support/failpoint.hpp"
#include "support/watchdog.hpp"

namespace pint::test {
namespace {

using pintd::PintDetector;
using pintd::RunResult;
using pintd::RunStatus;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

// 2^depth leaves, every one writing the same byte: racy by construction.
void racy_tree(int depth, unsigned char* base) {
  if (depth == 0) {
    record_write(base, 1);
    return;
  }
  rt::SpawnScope sc;
  sc.spawn([=] { racy_tree(depth - 1, base); });
  sc.spawn([=] { racy_tree(depth - 1, base); });
  sc.sync();
}

// 2^depth leaves, each writing its own 8-byte slot: race-free.
void disjoint_tree(int depth, unsigned char* base, std::uint32_t idx) {
  if (depth == 0) {
    record_write(base + std::size_t(idx) * 8, 4);
    return;
  }
  rt::SpawnScope sc;
  sc.spawn([=] { disjoint_tree(depth - 1, base, idx * 2); });
  sc.spawn([=] { disjoint_tree(depth - 1, base, idx * 2 + 1); });
  sc.sync();
}

// ---------------------------------------------------------------------------
// Harness plumbing
// ---------------------------------------------------------------------------

/// Redirects the shared error sink into a tmpfile for the lifetime of the
/// object; text() returns everything written so far.
struct CaptureErrors {
  std::FILE* f = nullptr;
  CaptureErrors() : f(std::tmpfile()) { set_error_stream(f); }
  ~CaptureErrors() {
    set_error_stream(nullptr);
    if (f != nullptr) std::fclose(f);
  }
  std::string text() const {
    std::fflush(f);
    std::rewind(f);
    std::string s;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) s.append(buf, n);
    return s;
  }
};

class FailPointTest : public ::testing::Test {
 protected:
  void SetUp() override { fail::reset(); }
  void TearDown() override { fail::reset(); }
};

RunResult run_pint(const PintDetector::Options& opt,
                   const std::function<void()>& body, bool* any_race,
                   detect::Stats::Snapshot* stats = nullptr) {
  PintDetector det(opt);
  const RunResult r = det.run(body);
  *any_race = det.reporter().any();
  if (stats != nullptr) *stats = det.stats().snapshot();
  return r;
}

// ---------------------------------------------------------------------------
// Fail-point framework units
// ---------------------------------------------------------------------------

TEST_F(FailPointTest, OnceFiresExactlyOnce) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "fail points compiled out";
  ASSERT_TRUE(fail::configure("p=once"));
  EXPECT_TRUE(fail::any_configured());
  EXPECT_TRUE(fail::hit("p"));
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(fail::hit("p"));
  EXPECT_EQ(fail::hit_count("p"), 11u);
  EXPECT_EQ(fail::fire_count("p"), 1u);
}

TEST_F(FailPointTest, EveryNFiresOnMultiples) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "fail points compiled out";
  ASSERT_TRUE(fail::configure("p=every:3"));
  std::vector<int> fired_at;
  for (int i = 1; i <= 9; ++i) {
    if (fail::hit("p")) fired_at.push_back(i);
  }
  EXPECT_EQ(fired_at, (std::vector<int>{3, 6, 9}));
}

TEST_F(FailPointTest, ProbIsDeterministicForFixedSeed) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "fail points compiled out";
  auto sample = [] {
    std::vector<bool> v;
    for (int i = 0; i < 128; ++i) v.push_back(fail::hit("p"));
    return v;
  };
  ASSERT_TRUE(fail::configure("p=prob:0.5,seed:9"));
  const std::vector<bool> a = sample();
  fail::reset();
  ASSERT_TRUE(fail::configure("p=prob:0.5,seed:9"));
  const std::vector<bool> b = sample();
  EXPECT_EQ(a, b);
  const std::uint64_t fires = fail::fire_count("p");
  EXPECT_GT(fires, 0u);   // p = 0.5 over 128 draws: both bounds hold
  EXPECT_LT(fires, 128u);
}

TEST_F(FailPointTest, ParseErrorsAreReportedAndSkipped) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "fail points compiled out";
  EXPECT_FALSE(fail::configure("no-equals-sign"));
  EXPECT_FALSE(fail::configure("p=bogus"));
  EXPECT_FALSE(fail::configure("p=every:0"));
  EXPECT_FALSE(fail::configure("p=prob:1.5"));
  EXPECT_FALSE(fail::configure("=once"));
  // Parsing stops at the first bad clause: earlier clauses stay installed,
  // later ones are never armed.
  EXPECT_FALSE(fail::configure("good=once;bad;late=always"));
  EXPECT_TRUE(fail::hit("good"));
  EXPECT_FALSE(fail::hit("late"));
  EXPECT_EQ(fail::hit_count("late"), 0u);
  // Unknown names are inert.
  EXPECT_FALSE(fail::hit("never-configured"));
  EXPECT_EQ(fail::hit_count("never-configured"), 0u);
}

TEST_F(FailPointTest, DelayOnlySpecFiresEveryHit) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "fail points compiled out";
  ASSERT_TRUE(fail::configure("p=delay:1"));
  EXPECT_TRUE(fail::hit("p"));
  EXPECT_TRUE(fail::hit("p"));
  EXPECT_EQ(fail::fire_count("p"), 2u);
}

TEST_F(FailPointTest, EnvVariableConfiguresPoints) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "fail points compiled out";
  ::setenv("PINT_FAILPOINTS", "envpoint=every:2", 1);
  EXPECT_TRUE(fail::configure_from_env());
  ::unsetenv("PINT_FAILPOINTS");
  EXPECT_FALSE(fail::hit("envpoint"));
  EXPECT_TRUE(fail::hit("envpoint"));
}

TEST_F(FailPointTest, MacroIsConstantFalseWhenCompiledOut) {
  if (fail::kCompiledIn) {
    GTEST_SKIP() << "build has fail points compiled in";
  }
  fail::configure("x=always");
  EXPECT_FALSE(PINT_FAILPOINT("x"));
  EXPECT_EQ(fail::hit_count("x"), 0u);  // the site never reached hit()
}

// ---------------------------------------------------------------------------
// Watchdog units
// ---------------------------------------------------------------------------

TEST(WatchdogTest, BusySilentHeartbeatTrips) {
  Heartbeat hb;  // starts busy (idle = false) and never beats
  Watchdog::Options o;
  o.deadline_ms = 30;
  Watchdog wd(o);
  wd.add("stage-x", &hb);
  std::atomic<int> snapshots{0};
  std::atomic<int> stalls{0};
  wd.set_snapshot([&](const char* name) {
    EXPECT_STREQ(name, "stage-x");
    snapshots.fetch_add(1);
  });
  wd.set_on_stall([&](const char*) { stalls.fetch_add(1); });
  wd.arm();
  for (int i = 0; i < 200 && !wd.tripped(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  wd.disarm();
  EXPECT_TRUE(wd.tripped());
  EXPECT_STREQ(wd.tripped_name(), "stage-x");
  EXPECT_EQ(snapshots.load(), 1);
  EXPECT_EQ(stalls.load(), 1);
}

TEST(WatchdogTest, IdleAndBeatingHeartbeatsDoNotTrip) {
  Heartbeat idle_hb;
  idle_hb.set_idle(true);  // legitimately waiting: never trips
  Heartbeat busy_hb;       // busy but making progress: never trips
  Watchdog::Options o;
  o.deadline_ms = 40;
  Watchdog wd(o);
  wd.add("idler", &idle_hb);
  wd.add("worker", &busy_hb);
  wd.arm();
  for (int i = 0; i < 30; ++i) {
    busy_hb.beat();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  wd.disarm();
  EXPECT_FALSE(wd.tripped());
  EXPECT_EQ(wd.tripped_name(), nullptr);
}

// ---------------------------------------------------------------------------
// The pool behind PINT's strands, traces and trace chunks
// ---------------------------------------------------------------------------

struct PoolObj {
  int v = 0;
};

TEST(PoolTest, TakeGiveRoundTripCountsObjectsInUse) {
  pintd::Pool<PoolObj> p("obj pool");
  EXPECT_STREQ(p.name(), "obj pool");
  PoolObj* a = p.take();
  PoolObj* b = p.take();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  EXPECT_EQ(p.in_use(), 2);  // what the pool.* gauges read
  a->v = 7;
  p.give(a);
  EXPECT_EQ(p.in_use(), 1);
  EXPECT_EQ(p.take(), a);  // the free list first, as it was left
  EXPECT_EQ(a->v, 7);
  EXPECT_EQ(p.reuse(), nullptr);  // reuse() never allocates
  EXPECT_EQ(p.in_use(), 2);
  p.give(a);
  p.give(b);
  EXPECT_EQ(p.in_use(), 0);
}

TEST_F(FailPointTest, PoolAllocFiresOnAFreshAllocationOnly) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "fail points compiled out";
  pintd::Pool<PoolObj> p("obj pool");
  PoolObj* a = p.take();
  ASSERT_NE(a, nullptr);
  p.give(a);
  ASSERT_TRUE(fail::configure("pool.alloc=once"));
  // A free-list reuse never reaches the fail point.
  EXPECT_EQ(p.take(), a);
  EXPECT_EQ(fail::hit_count("pool.alloc"), 0u);
  // The first miss does, and `once` fails it; the next miss allocates.
  EXPECT_EQ(p.take(), nullptr);
  PoolObj* b = p.take();
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(fail::hit_count("pool.alloc"), 2u);
  EXPECT_EQ(fail::fire_count("pool.alloc"), 1u);
  EXPECT_EQ(p.in_use(), 2);  // the failed take counted nothing
  p.give(a);
  p.give(b);
}

TEST_F(FailPointTest, PoolReserveServesOnlyAfterAFailedTake) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "fail points compiled out";
  ASSERT_TRUE(fail::configure("pool.alloc=always"));
  pintd::Pool<PoolObj> pool("obj pool");
  pintd::Pool<PoolObj> reserve("obj reserve");
  reserve.fill(2);  // carved past the fail point
  EXPECT_EQ(fail::hit_count("pool.alloc"), 0u);
  ASSERT_EQ(pool.take(), nullptr);
  PoolObj* r = reserve.reuse();
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(fail::hit_count("pool.alloc"), 1u);  // the reserve never allocates
  // A reserve object recycles into the pool that took it; the gauges sum
  // the pools of a kind.
  pool.give(r);
  EXPECT_EQ(pool.reuse(), r);
  EXPECT_EQ(pool.in_use() + reserve.in_use(), 1);
  pool.give(r);
  EXPECT_EQ(pool.in_use() + reserve.in_use(), 0);

  // In the detector: a clean run never reaches the reserve, and one failed
  // allocation reaches it exactly once (one out-of-memory event, no wait).
  fail::reset();
  PintDetector::Options o;
  o.core_workers = 2;
  std::vector<unsigned char> bytes(64, 0);
  bool any = false;
  detect::Stats::Snapshot st{};
  EXPECT_EQ(run_pint(o, [&] { racy_tree(4, bytes.data()); }, &any, &st).status,
            RunStatus::kOk);
  EXPECT_EQ(st.oom_events, 0u);
  CaptureErrors cap;
  ASSERT_TRUE(fail::configure("pool.alloc=once"));
  EXPECT_EQ(run_pint(o, [&] { racy_tree(4, bytes.data()); }, &any, &st).status,
            RunStatus::kOutOfMemory);
  EXPECT_EQ(st.oom_events, 1u);
  EXPECT_NE(cap.text().find("allocation failure (trace pool)"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Pipeline fault scenarios
// ---------------------------------------------------------------------------

TEST_F(FailPointTest, ReaderStallTripsWatchdogWithSnapshot) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "fail points compiled out";
  CaptureErrors cap;
  // One reader sleeps 300 ms mid-strand while marked busy; the 50 ms
  // watchdog deadline must fire, dump the snapshot, and cancel the run.
  ASSERT_TRUE(fail::configure("reader.stall=once,delay:300"));
  PintDetector::Options o;
  o.core_workers = 2;
  o.watchdog_ms = 50;
  std::vector<unsigned char> pool(64, 0);
  bool any = false;
  detect::Stats::Snapshot st{};
  const RunResult r =
      run_pint(o, [&] { racy_tree(4, pool.data()); }, &any, &st);
  EXPECT_EQ(r.status, RunStatus::kStalled);
  EXPECT_TRUE(r.watchdog_tripped);
  EXPECT_FALSE(r.ok());
  EXPECT_STREQ(r.status_name(), "stalled");
  EXPECT_EQ(st.watchdog_trips, 1u);
  EXPECT_GE(fail::fire_count("reader.stall"), 1u);
  const std::string out = cap.text();
  EXPECT_NE(out.find("WATCHDOG"), std::string::npos) << out;
  EXPECT_NE(out.find("[pint "), std::string::npos) << out;  // sink header
  EXPECT_NE(out.find("queue: head="), std::string::npos) << out;
  EXPECT_NE(out.find("consumer"), std::string::npos) << out;
}

TEST_F(FailPointTest, SlowButProgressingReaderDoesNotTrip) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "fail points compiled out";
  // Every strand costs an extra 2 ms but the lane beats between sleeps:
  // slow is not stalled, so a (generous) watchdog must stay quiet.
  ASSERT_TRUE(fail::configure("reader.stall=delay:2"));
  PintDetector::Options o;
  o.core_workers = 2;
  o.watchdog_ms = 400;
  std::vector<unsigned char> pool(64, 0);
  bool any = false;
  detect::Stats::Snapshot st{};
  const RunResult r =
      run_pint(o, [&] { racy_tree(3, pool.data()); }, &any, &st);
  EXPECT_EQ(r.status, RunStatus::kOk);
  EXPECT_FALSE(r.watchdog_tripped);
  EXPECT_EQ(st.watchdog_trips, 0u);
  EXPECT_GT(fail::fire_count("reader.stall"), 0u);
  EXPECT_TRUE(any);
}

TEST_F(FailPointTest, PoolAllocFailureDegradesToCleanOom) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "fail points compiled out";
  PintDetector::Options o;
  o.core_workers = 2;
  std::vector<unsigned char> pool(64, 0);

  bool clean_any = false;
  const RunResult clean =
      run_pint(o, [&] { racy_tree(4, pool.data()); }, &clean_any);
  ASSERT_EQ(clean.status, RunStatus::kOk);
  ASSERT_TRUE(clean_any);

  CaptureErrors cap;
  ASSERT_TRUE(fail::configure("pool.alloc=once"));
  bool faulty_any = false;
  detect::Stats::Snapshot st{};
  const auto t0 = std::chrono::steady_clock::now();
  const RunResult r =
      run_pint(o, [&] { racy_tree(4, pool.data()); }, &faulty_any, &st);
  // The allocation wait gives up after 10 s (kAllocWaitNs); a degraded run
  // must end long before that, parked lanes included.
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(3));
  // The emergency reserve absorbs the failed allocation: the run finishes,
  // reports kOutOfMemory, and detection still matches the clean run.  The
  // ASan lane additionally proves the degradation path leaks nothing.
  EXPECT_EQ(r.status, RunStatus::kOutOfMemory);
  EXPECT_STREQ(r.status_name(), "out-of-memory");
  EXPECT_GE(st.oom_events, 1u);
  EXPECT_EQ(fail::fire_count("pool.alloc"), 1u);
  EXPECT_EQ(faulty_any, clean_any);
  EXPECT_NE(cap.text().find("allocation"), std::string::npos);
}

TEST_F(FailPointTest, ExhaustedPoolDrainsThroughParkedLanes) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "fail points compiled out";
  // Every pool miss fails, so once the 32-strand reserve is gone each spawn
  // waits in PintDetector::take_after_oom for the pipeline to recycle
  // strands.  Fewer than a wake batch may be in flight then: only the
  // wait's own wakes can get a parked writer and reader to drain, so the
  // run must still finish (with kOutOfMemory and the clean verdict) long
  // before the 10 s wait deadline.
  CaptureErrors cap;
  ASSERT_TRUE(fail::configure("pool.alloc=always"));
  PintDetector::Options o;
  o.core_workers = 1;
  std::vector<unsigned char> pool(64, 0);
  bool any = false;
  detect::Stats::Snapshot st{};
  const auto t0 = std::chrono::steady_clock::now();
  const RunResult r =
      run_pint(o, [&] { racy_tree(6, pool.data()); }, &any, &st);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(3));
  EXPECT_EQ(r.status, RunStatus::kOutOfMemory);
  EXPECT_TRUE(any);
  EXPECT_EQ(r.dropped_strands, 0u);
  EXPECT_GT(fail::fire_count("pool.alloc"), 0u);
  // More fallbacks than the reserve holds: the wait path really ran.
  EXPECT_GT(st.oom_events, 32u);
}

TEST_F(FailPointTest, SequentialModeAllocationWaitDiesNamingThePool) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "fail points compiled out";
  // Sequential-history mode recycles nothing before the core phase ends,
  // so once the 32 reserve strands are gone the wait has nothing to wait
  // for; racy_tree(6) takes far more strands than that.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_TRUE(fail::configure("pool.alloc=always"));
  PintDetector::Options o;
  o.parallel_history = false;
  std::vector<unsigned char> pool(64, 0);
  EXPECT_DEATH(
      {
        bool any = false;
        run_pint(o, [&] { racy_tree(6, pool.data()); }, &any);
      },
      "strand pool allocation failed in sequential-history mode");
}

TEST_F(FailPointTest, SpawnFailureFallsBackToSequentialHistory) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "fail points compiled out";
  CaptureErrors cap;
  ASSERT_TRUE(fail::configure("history.spawn=once"));
  PintDetector::Options o;
  o.core_workers = 2;
  o.parallel_history = true;
  std::vector<unsigned char> pool(64, 0);
  bool any = false;
  const RunResult r = run_pint(o, [&] { racy_tree(4, pool.data()); }, &any);
  // Detection is complete and exact in the fallback mode; only the
  // history-pipeline asynchrony is lost, so the status stays kOk.
  EXPECT_EQ(r.status, RunStatus::kOk);
  EXPECT_TRUE(r.degraded_sequential_history);
  EXPECT_TRUE(any);
  EXPECT_NE(cap.text().find("falling back"), std::string::npos);
}

TEST_F(FailPointTest, ReaderSpawnFailureRollsBackTheSpawnedWriter) {
  // Hit 1 guards the writer thread, hit 2 the one reader thread: failing the
  // reader leaves a spawned writer that the rollback must release and join.
  if (!fail::kCompiledIn) GTEST_SKIP() << "fail points compiled out";
  CaptureErrors cap;
  ASSERT_TRUE(fail::configure("history.spawn=every:2"));
  PintDetector::Options o;
  o.core_workers = 2;
  o.parallel_history = true;
  std::vector<unsigned char> pool(64, 0);
  bool any = false;
  const RunResult r = run_pint(o, [&] { racy_tree(4, pool.data()); }, &any);
  EXPECT_EQ(r.status, RunStatus::kOk);
  EXPECT_TRUE(r.degraded_sequential_history);
  EXPECT_TRUE(any);
  EXPECT_EQ(fail::hit_count("history.spawn"), 2u);
  EXPECT_EQ(fail::fire_count("history.spawn"), 1u);
  EXPECT_NE(cap.text().find("falling back"), std::string::npos);
}

TEST_F(FailPointTest, QueueFullStormKeepsDetectionExact) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "fail points compiled out";
  PintDetector::Options o;
  o.core_workers = 2;
  o.queue_capacity = 8;  // tiny ring + injected full-pressure
  std::vector<unsigned char> pool(1024, 0);

  ASSERT_TRUE(fail::configure("ahqueue.push.full=prob:0.5,seed:11"));
  bool racy_any = false;
  detect::Stats::Snapshot st{};
  const RunResult r1 =
      run_pint(o, [&] { racy_tree(4, pool.data()); }, &racy_any, &st);
  EXPECT_EQ(r1.status, RunStatus::kOk);
  EXPECT_TRUE(racy_any);  // matches the oracle: the racy tree races
  EXPECT_GT(st.stalled_pushes, 0u);
  EXPECT_GT(st.backoff_pauses, 0u);

  fail::reset();
  ASSERT_TRUE(fail::configure("ahqueue.push.full=prob:0.5,seed:11"));
  bool clean_any = true;
  const RunResult r2 =
      run_pint(o, [&] { disjoint_tree(4, pool.data(), 0); }, &clean_any);
  EXPECT_EQ(r2.status, RunStatus::kOk);
  EXPECT_FALSE(clean_any);  // and the race-free tree stays race-free
}

TEST_F(FailPointTest, RingSmallerThanWakeBatchStaysExact) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "fail points compiled out";
  // An 8-slot ring fills before the writer's 32-publish wake check, so a
  // parked reader is woken only by the full-ring backoff; injected
  // full-ring hits put that path on top.  The run must neither hang nor
  // lose a race: the verdicts and race counts match an unconstrained run.
  PintDetector::Options big;
  big.core_workers = 1;
  PintDetector::Options tiny = big;
  tiny.queue_capacity = 8;
  tiny.watchdog_ms = 2000;
  static_assert(8 < pintd::kWakeBatch, "the ring must be below a wake batch");
  std::vector<unsigned char> pool(1024, 0);
  for (const bool racy : {true, false}) {
    const auto body = [&] {
      if (racy) {
        racy_tree(6, pool.data());
      } else {
        disjoint_tree(6, pool.data(), 0);
      }
    };
    fail::reset();
    PintDetector ref(big);
    ASSERT_EQ(ref.run(body).status, RunStatus::kOk);

    ASSERT_TRUE(fail::configure("ahqueue.push.full=every:3"));
    PintDetector det(tiny);
    const RunResult r = det.run(body);
    const detect::Stats::Snapshot st = det.stats().snapshot();
    EXPECT_EQ(r.status, RunStatus::kOk) << "racy=" << racy;
    EXPECT_FALSE(r.watchdog_tripped);
    EXPECT_EQ(det.reporter().any(), racy);
    EXPECT_EQ(det.reporter().distinct_races(),
              ref.reporter().distinct_races());
    EXPECT_GT(st.stalled_pushes, 0u);
    EXPECT_GT(fail::fire_count("ahqueue.push.full"), 0u);
  }
}

TEST_F(FailPointTest, WatchdogTripWithParkedLanesReturnsPromptly) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "fail points compiled out";
  CaptureErrors cap;
  // Two shards: the first strand a shard processes stalls it for 300 ms
  // while busy.  The other shard and the writer run dry and park (the core
  // sleeps after its tree), so the trip lands on a pipeline whose other
  // lanes are asleep: the cancel must wake them, and run() returns
  // kStalled once the core and the stalled shard are done.
  ASSERT_TRUE(fail::configure("reader.stall=once,delay:300"));
  PintDetector::Options o;
  o.core_workers = 1;
  o.history_shards = 2;
  o.watchdog_ms = 50;
  std::vector<unsigned char> pool(64, 0);
  bool any = false;
  detect::Stats::Snapshot st{};
  const auto t0 = std::chrono::steady_clock::now();
  const RunResult r = run_pint(
      o,
      [&] {
        racy_tree(6, pool.data());
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
      },
      &any, &st);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(3));
  EXPECT_EQ(r.status, RunStatus::kStalled);
  EXPECT_TRUE(r.watchdog_tripped);
  EXPECT_EQ(st.watchdog_trips, 1u);
  EXPECT_GT(st.lane_parks, 0u);
  EXPECT_NE(cap.text().find("WATCHDOG"), std::string::npos);
}

TEST_F(FailPointTest, TransientBackoffDoesNotTripWatchdogLater) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "fail points compiled out";
  // Regression: a single queue-full backoff marks the collector-backoff
  // heartbeat busy; collect() must return it to idle once the push lands,
  // or any run outliving the watchdog deadline after one transient stall
  // is cancelled as kStalled despite being perfectly healthy.
  ASSERT_TRUE(fail::configure("ahqueue.push.full=once"));
  PintDetector::Options o;
  o.core_workers = 2;
  o.watchdog_ms = 50;
  std::vector<unsigned char> pool(64, 0);
  bool any = false;
  detect::Stats::Snapshot st{};
  const RunResult r = run_pint(
      o,
      [&] {
        racy_tree(3, pool.data());  // pushes strands; first push is stalled
        // Keep the run alive well past the deadline after the stall.
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
      },
      &any, &st);
  EXPECT_EQ(r.status, RunStatus::kOk);
  EXPECT_FALSE(r.watchdog_tripped);
  EXPECT_EQ(st.watchdog_trips, 0u);
  EXPECT_GE(st.stalled_pushes, 1u);
  EXPECT_EQ(fail::fire_count("ahqueue.push.full"), 1u);
  EXPECT_TRUE(any);
}

TEST_F(FailPointTest, SequentialRingCapShedsAndReportsOom) {
  CaptureErrors cap;
  // No fail point needed: the cap itself is the fault.  Sequential mode
  // buffers every strand, so a 16-slot ceiling against ~dozens of strands
  // must shed, keep running, and report kOutOfMemory.
  PintDetector::Options o;
  o.parallel_history = false;
  o.queue_capacity = 8;
  o.max_queue_capacity = 16;
  std::vector<unsigned char> pool(64, 0);
  bool any = false;
  detect::Stats::Snapshot st{};
  const RunResult r =
      run_pint(o, [&] { racy_tree(5, pool.data()); }, &any, &st);
  EXPECT_EQ(r.status, RunStatus::kOutOfMemory);
  EXPECT_GT(r.dropped_strands, 0u);
  EXPECT_EQ(st.dropped_strands, r.dropped_strands);
  EXPECT_GE(st.oom_events, 1u);
  EXPECT_NE(cap.text().find("max_queue_capacity"), std::string::npos);
}

TEST_F(FailPointTest, UncappedSequentialRingStillGrows) {
  // Regression guard for the bounded-growth rewrite: the default
  // (max_queue_capacity = 0) keeps the old grow-forever behaviour.
  PintDetector::Options o;
  o.parallel_history = false;
  o.queue_capacity = 8;
  std::vector<unsigned char> pool(64, 0);
  bool any = false;
  const RunResult r = run_pint(o, [&] { racy_tree(5, pool.data()); }, &any);
  EXPECT_EQ(r.status, RunStatus::kOk);
  EXPECT_EQ(r.dropped_strands, 0u);
  EXPECT_TRUE(any);
}

// ---------------------------------------------------------------------------
// Reporter record shedding
// ---------------------------------------------------------------------------

TEST(ReporterTest, DroppedRecordsAreObservable) {
  detect::RaceReporter rep(/*max_records=*/2);
  for (std::uint64_t i = 0; i < 5; ++i) {
    rep.report(/*prev_sid=*/10 + 2 * i, true, /*cur_sid=*/11 + 2 * i, true,
               /*lo=*/0, /*hi=*/8);
  }
  EXPECT_EQ(rep.distinct_races(), 5u);  // counting never stops
  EXPECT_EQ(rep.records().size(), 2u);  // detail capped at max_records
  EXPECT_EQ(rep.dropped_records(), 3u);
  rep.clear();
  EXPECT_EQ(rep.dropped_records(), 0u);
}

}  // namespace
}  // namespace pint::test
