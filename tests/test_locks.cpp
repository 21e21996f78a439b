// Lockset matrix (DESIGN.md §12): mutex-guarded programs must report ZERO
// races with lock edges on, their unguarded twins must keep racing, and the
// verdicts must agree across every detector and history mode.  Also covers
// the LocksetTable itself, the lock sub-records of the interval detectors
// (§12.3) and the mixed-lockset shapes they must catch, and lock-bearing
// random programs against the oracle.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "detect/lockset.hpp"
#include "detect/strand.hpp"
#include "kernels/kernels.hpp"
#include "oracle/oracle_detector.hpp"
#include "pint/pint_detector.hpp"
#include "stint/stint_detector.hpp"
#include "support/spinlock.hpp"

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
// A recording detector over the shared sub-record helpers
// ---------------------------------------------------------------------------

/// One finalized sub-record, as seal_strand() leaves it.
struct SealedRecord {
  std::uint64_t sid = 0;
  detect::lockset_t lsid = 0;
  std::vector<detect::Interval> reads, writes;
  bool operator==(const SealedRecord&) const = default;
};

/// A one-worker detector built from the recording helpers STINT and PINT
/// share (detect/strand.hpp), so it records through the same access cursor
/// and lock lanes.  It keeps no history and reports nothing: it keeps every
/// sealed strand's sub-records in apply order, and counts the lock events
/// that reached it rather than being switched inside the cursor.
class SubRecordRecorder final : public detect::Detector,
                                public rt::SchedulerHooks {
 public:
  std::vector<SealedRecord> sealed;
  std::uint64_t lock_calls = 0;

  void run(const std::function<void()>& body) {
    rt::Scheduler::Options so;
    so.workers = 1;
    so.hooks = this;
    rt::Scheduler sched(so);
    detect::set_active_detector(this);
    sched.run(body);
    detect::set_active_detector(nullptr);
  }

  // detect::Detector: the slow route of accesses, and lock events.
  void on_access(rt::Worker&, rt::TaskFrame& f, detect::addr_t lo,
                 detect::addr_t hi, bool is_write) override {
    detect::LockRecord& r = strand(f).active();
    (is_write ? r.writes : r.reads).add(lo, hi);
  }
  void on_heap_free(rt::Worker&, rt::TaskFrame&, void* base, detect::addr_t,
                    detect::addr_t) override {
    std::free(base);
  }
  void on_lock_acquire(rt::Worker&, rt::TaskFrame& f,
                       detect::addr_t lock) override {
    ++lock_calls;
    detect::note_lock_event(strand(f), lock, true);
  }
  void on_lock_release(rt::Worker&, rt::TaskFrame& f,
                       detect::addr_t lock) override {
    ++lock_calls;
    detect::note_lock_event(strand(f), lock, false);
  }
  const char* name() const override { return "subrecords"; }

  // rt::SchedulerHooks: STINT's strand boundaries.
  void on_root_start(rt::Worker&, rt::TaskFrame& f) override {
    f.det_strand = begin(fresh());
  }
  void on_root_end(rt::Worker&, rt::TaskFrame& f) override {
    seal(strand(f));
  }
  void on_spawn(rt::Worker&, rt::TaskFrame& parent, rt::SyncBlock& blk,
                rt::TaskFrame& child) override {
    detect::Strand& u = strand(parent);
    detect::detach_cursor(u);  // u's current sub-record: its held lockset
    detect::Strand* t = fresh();
    t->active().lsid = u.held();
    seal(u);
    if (blk.det_sync == nullptr) blk.det_sync = fresh();
    parent.det_cont = t;
    child.det_strand = begin(fresh());
  }
  void on_spawn_return(rt::Worker&, rt::TaskFrame& child, bool) override {
    seal(strand(child));
  }
  void on_continuation(rt::Worker&, rt::TaskFrame& parent, bool) override {
    parent.det_strand = begin(static_cast<detect::Strand*>(parent.det_cont));
    parent.det_cont = nullptr;
  }
  void on_sync(rt::Worker&, rt::TaskFrame& f, rt::SyncBlock& blk,
               bool) override {
    if (blk.det_sync != nullptr) seal(strand(f));
  }
  void on_after_sync(rt::Worker&, rt::TaskFrame& f, rt::SyncBlock& blk,
                     bool) override {
    if (blk.det_sync == nullptr) return;
    f.det_strand = begin(static_cast<detect::Strand*>(blk.det_sync));
    blk.det_sync = nullptr;
  }

 private:
  static detect::Strand& strand(rt::TaskFrame& f) {
    return *static_cast<detect::Strand*>(f.det_strand);
  }
  detect::Strand* fresh() {
    strands_.push_back(std::make_unique<detect::Strand>());
    strands_.back()->reset(strands_.size());
    return strands_.back().get();
  }
  static detect::Strand* begin(detect::Strand* s) {
    detect::install_cursor(*s, /*coalesce=*/true);
    return s;
  }
  void seal(detect::Strand& s) {
    detect::detach_cursor(s);
    detect::seal_strand(s, /*coalesce=*/true, tally_);
    s.for_each_record([&](const detect::LockRecord& r) {
      sealed.push_back({s.sid, r.lsid, r.reads.items(), r.writes.items()});
    });
  }

  std::vector<std::unique_ptr<detect::Strand>> strands_;
  detect::SealTally tally_;
};

// RAII: the lock-lane tests flip the global fast-path knob.
struct FastPathGuard {
  bool saved = detect::access_fast_path();
  ~FastPathGuard() { detect::set_access_fast_path(saved); }
};

/// The recorder's run of `body` on the cursor route (fast) or with the
/// fast path off, where every access and lock event takes the detector
/// route.
SubRecordRecorder record_under(bool fast, const std::function<void()>& body) {
  FastPathGuard g;
  detect::set_access_fast_path(fast);
  SubRecordRecorder rec;
  rec.run(body);
  return rec;
}

/// The lockset id of a set of lock addresses.
detect::lockset_t lockset_of(std::initializer_list<const void*> locks) {
  detect::lockset_t id = 0;
  for (const void* m : locks) {
    id = detect::LocksetTable::instance().acquire(id, detect::addr_of(m));
  }
  return id;
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
  // The removed knobs' keys (cursor=, memo=, simd=, arena=, bulk=) are
  // ignored (warn-once); the other keys apply.
  detect::Tuning want;
  want.lock_edges = false;
  EXPECT_EQ(detect::Tuning::parse(
                "cursor=wide,memo=off,locks=off,simd=off,arena=off,bulk=off",
                detect::Tuning{}),
            want);
  EXPECT_EQ(detect::Tuning::parse("memo=on", detect::Tuning{}),
            detect::Tuning{});
}

// ---------------------------------------------------------------------------
// Lock sub-records (DESIGN.md §12.3): a lock event moves the strand to the
// sub-record of the new held lockset; no lock event cuts a strand.
// Stats::lock_splits counts the non-empty sub-records beyond a strand's
// first.
// ---------------------------------------------------------------------------

// STINT and PINT phased, pipelined and sharded: the interval detectors,
// which keep one sub-record per lockset.
const Det kIntervalDetectors[] = {Det::kStint, Det::kPintSeq, Det::kPint2,
                                  Det::kPintShard3};

TEST(LockSegments, BackToBackCriticalSectionsCostNoSplit) {
  constexpr int kSections = 64;
  for (Det d : kIntervalDetectors) {
    Spinlock mu;
    std::uint64_t words[2] = {0, 0};
    auto sections = [&] {
      for (int i = 0; i < kSections; ++i) {
        InstrumentedLockGuard<Spinlock> g(mu);
        istore(words[0], words[0] + 1);
      }
    };
    // Every section records into the one {mu} sub-record; the root's
    // unguarded sub-record stays empty, so nothing counts as a split.
    const DetRun guarded = run_under(d, sections);
    EXPECT_EQ(guarded.stats.lock_splits, 0u) << det_name(d);
    EXPECT_EQ(guarded.stats.slowpath_accesses, 0u) << det_name(d);
    // One unguarded access after the last release fills the unguarded
    // sub-record too: exactly one split, and still no extra strand.
    const DetRun tail = run_under(d, [&] {
      sections();
      record_write(&words[1], sizeof(words[1]));
    });
    EXPECT_EQ(tail.stats.lock_splits, 1u) << det_name(d);
    EXPECT_EQ(tail.stats.strands, guarded.stats.strands) << det_name(d);
    EXPECT_EQ(tail.stats.slowpath_accesses, 0u) << det_name(d);
    EXPECT_EQ(tail.distinct, 0u) << det_name(d);
  }
}

TEST(LockSegments, ReturningToTheSegmentLocksetCostsNoSplit) {
  for (Det d : kIntervalDetectors) {
    Spinlock a, b;
    std::uint64_t words[2] = {0, 0};
    const DetRun r = run_under(d, [&] {
      InstrumentedLockGuard<Spinlock> ga(a);
      istore(words[0], std::uint64_t(1));
      { InstrumentedLockGuard<Spinlock> gb(b); }  // {A} -> {A,B} -> {A}
      istore(words[1], std::uint64_t(2));
    });
    EXPECT_EQ(r.stats.lock_splits, 0u) << det_name(d);
    EXPECT_EQ(r.stats.slowpath_accesses, 0u) << det_name(d);
  }
}

TEST(LockSegments, ContinuationInheritsTheHeldLockset) {
  // The root strand records under {mu}, then releases mu and spawns.  The
  // continuation holds nothing, so its bare write races with the child's
  // guarded write of the same word; a continuation that inherited the
  // lockset of the root's last non-empty sub-record would claim mu and have
  // the lockset filter drop the race.  The racing writes are recorded, not
  // performed, so the test itself stays race-free under TSan.
  for (Det d : kIntervalDetectors) {
    Spinlock mu;
    std::uint64_t guarded_word = 0, shared = 0;
    const DetRun r = run_under(d, [&] {
      {
        InstrumentedLockGuard<Spinlock> g(mu);
        istore(guarded_word, std::uint64_t(1));
      }
      rt::SpawnScope sc;
      sc.spawn([&] {
        InstrumentedLockGuard<Spinlock> g(mu);
        record_write(&shared, sizeof(shared));
      });
      record_write(&shared, sizeof(shared));
      sc.sync();
    });
    EXPECT_GT(r.distinct, 0u) << "continuation race missed under "
                              << det_name(d);
  }
}

TEST(LockSegments, ContinuationStartsInTheHeldLocksetsLane) {
  // mu held across the spawn: the continuation starts in the {mu} lane,
  // the child in the empty one.  The hooks are called without a real lock
  // (the child runs first on this worker while the parent "holds" mu), and
  // the accesses are recorded, not performed.
  static int mu;
  std::uint64_t bare = 0, guarded = 0;
  // `bare`: the child's unguarded write against the continuation's write
  // under the inherited {mu} - a race.  `guarded`: both sides hold mu -
  // none, which a continuation starting empty would report.
  const auto body = [&](bool touch_bare) {
    lock_acquire(&mu);
    rt::SpawnScope sc;
    sc.spawn([&] {
      if (touch_bare) record_write(&bare, sizeof(bare));
      lock_acquire(&mu);
      if (!touch_bare) record_write(&guarded, sizeof(guarded));
      lock_release(&mu);
    });
    record_write(touch_bare ? &bare : &guarded, sizeof(bare));
    lock_release(&mu);
    sc.sync();
  };
  for (Det d : kIntervalDetectors) {
    EXPECT_GT(run_under(d, [&] { body(true); }).distinct, 0u)
        << "child inherited the parent's lockset under " << det_name(d);
    EXPECT_EQ(run_under(d, [&] { body(false); }).distinct, 0u)
        << "continuation lost the held lockset under " << det_name(d);
  }
  // The sub-records themselves: the child's bare write sits in a {} record,
  // the continuation's in a {mu} record, on either route.
  const detect::lockset_t held = lockset_of({&mu});
  const detect::Interval word{detect::addr_of(&bare),
                              detect::addr_of(&bare) + sizeof(bare) - 1};
  for (const bool fast : {true, false}) {
    const SubRecordRecorder rec = record_under(fast, [&] { body(true); });
    std::vector<detect::lockset_t> holders;
    for (const SealedRecord& r : rec.sealed) {
      if (r.writes == std::vector<detect::Interval>{word}) {
        holders.push_back(r.lsid);
      }
    }
    EXPECT_EQ(holders, (std::vector<detect::lockset_t>{0, held}))
        << "fast=" << fast;  // child sealed first
  }
}

TEST(LockSegments, GuardedTwinSplitsAtMostOncePerTask) {
  // Eager splitting cut two segments per guarded increment.  With
  // sub-records a task's strand holds at most two non-empty ones: its
  // guarded increments and its unguarded `done` write.
  for (Det d : kIntervalDetectors) {
    kernels::KernelConfig kc;
    kc.scale = 0.5;
    auto k = kernels::make_kernel("lktwin", kc);
    k->prepare();
    const std::string cfg = k->config_string();  // "tasks=N incs=..."
    const std::uint64_t tasks = std::stoull(cfg.substr(cfg.find('=') + 1));
    const DetRun r = run_under(d, [&] { k->run(); });
    EXPECT_TRUE(k->verify()) << det_name(d);
    EXPECT_EQ(r.distinct, 0u) << det_name(d);
    EXPECT_LE(r.stats.lock_splits, tasks) << det_name(d);
  }
}

// ---------------------------------------------------------------------------
// Mixed locksets inside one strand (DESIGN.md §12.3-§12.4)
// ---------------------------------------------------------------------------

// One access of a shape: a read or a write of the shared word, guarded by
// the shape's mutex or not.
struct ShapeStep {
  bool write;
  bool guarded;
};

struct MixedShape {
  const char* name;
  ShapeStep first, second;
};

// A child strand touches x twice under two locksets; the parallel
// continuation writes x under {m}.  Whichever of the child's records the
// histories retain, the unguarded one races with the continuation's write,
// so every shape must be reported.
const MixedShape kMixedShapes[] = {
    {"R{} R{m}", {false, false}, {false, true}},
    {"W{m} W{}", {true, true}, {true, false}},
    {"R{m} R{}", {false, true}, {false, false}},
    {"W{} W{m}", {true, false}, {true, true}},
};

// With `earlier_reader`, a first child reads x under {m} before the shape's
// child is spawned: a parallel reader left of it in the reader history.
std::function<void()> mixed_shape_body(const MixedShape& sh, Spinlock& mu,
                                       std::uint64_t& x,
                                       bool earlier_reader = false) {
  // The racing accesses are recorded, not performed, so the test itself
  // stays race-free under TSan.
  auto step = [&mu, &x](const ShapeStep& st) {
    if (st.guarded) lock_acquire(&mu);
    if (st.write) {
      record_write(&x, sizeof(x));
    } else {
      record_read(&x, sizeof(x));
    }
    if (st.guarded) lock_release(&mu);
  };
  return [&sh, step, earlier_reader] {
    rt::SpawnScope sc;
    if (earlier_reader) sc.spawn([step] { step({false, true}); });
    sc.spawn([&sh, step] {
      step(sh.first);
      step(sh.second);
    });
    step({true, true});
    sc.sync();
  };
}

TEST(LockSubRecords, MixedLocksetShapesRaceOnIntervalDetectors) {
  for (const MixedShape& sh : kMixedShapes) {
    for (Det d : kIntervalDetectors) {
      Spinlock mu;
      std::uint64_t x = 0;
      const DetRun r = run_under(d, mixed_shape_body(sh, mu, x));
      EXPECT_GT(r.distinct, 0u) << sh.name << " missed under " << det_name(d);
    }
  }
}

TEST(LockSubRecords, MixedShapesRaceBesideAnEarlierGuardedReader) {
  // An earlier child's {m} read holds the left reader slot, so the shape's
  // child gets only the right one: it must end up with the child's
  // unguarded sub-record, not the guarded one applied before it.  (STINT's
  // one serial slot keeps the earlier reader: cross-strand retention,
  // DESIGN.md §12.4.)
  for (const MixedShape& sh : kMixedShapes) {
    for (Det d : {Det::kPintSeq, Det::kPint2, Det::kPintShard3}) {
      Spinlock mu;
      std::uint64_t x = 0;
      const DetRun r = run_under(d, mixed_shape_body(sh, mu, x, true));
      EXPECT_GT(r.distinct, 0u) << sh.name << " missed under " << det_name(d);
    }
  }
}

TEST(LockSubRecords, TwoSidedReaderKeepsTwoIncomparableLocksets) {
  // The child reads x under {a}, then under {b}; the continuation writes x
  // under {b}.  Only the {a} read races with it.  PINT's reader store keeps
  // both of the child's sub-records, one per slot, and the write check must
  // look at the right slot although it holds the left slot's strand.  (A
  // one-reader slot keeps only the {b} read: STINT misses this shape,
  // DESIGN.md §12.4.)
  for (Det d : {Det::kPintSeq, Det::kPint2, Det::kPintShard3}) {
    Spinlock a, b;
    std::uint64_t x = 0;
    const DetRun r = run_under(d, [&] {
      rt::SpawnScope sc;
      sc.spawn([&] {
        {
          InstrumentedLockGuard<Spinlock> ga(a);
          record_read(&x, sizeof(x));
        }
        InstrumentedLockGuard<Spinlock> gb(b);
        record_read(&x, sizeof(x));
      });
      {
        InstrumentedLockGuard<Spinlock> gb(b);
        record_write(&x, sizeof(x));
      }
      sc.sync();
    });
    EXPECT_GT(r.distinct, 0u) << det_name(d);
  }
}

TEST(LockSubRecords, TwoSidedReaderKeepsLocksetsApartAcrossNeighbours) {
  // The child reads x[1] under {a}, then x[0..1] under {b}; the
  // continuation writes x[1] under {b}.  The {b} read leaves (child{b},
  // child{b}) over x[0] beside (child{b}, child{a}) over x[1]: one strand
  // in both pairs, but not one record, so the store must not merge them.
  for (Det d : {Det::kPintSeq, Det::kPint2, Det::kPintShard3}) {
    Spinlock a, b;
    std::uint64_t x[2] = {0, 0};
    const DetRun r = run_under(d, [&] {
      rt::SpawnScope sc;
      sc.spawn([&] {
        {
          InstrumentedLockGuard<Spinlock> ga(a);
          record_read(&x[1], sizeof(x[1]));
        }
        InstrumentedLockGuard<Spinlock> gb(b);
        record_read(x, sizeof(x));
      });
      {
        InstrumentedLockGuard<Spinlock> gb(b);
        record_write(&x[1], sizeof(x[1]));
      }
      sc.sync();
    });
    EXPECT_GT(r.distinct, 0u) << det_name(d);
  }
}

TEST(LockSubRecords, KeptNeighboursKeepTheirOwnLocksets) {
  // The child reads x[0] under {a} and x[1] under {b}.  The continuation
  // reads x[0..1], which keeps the parallel child's records in place, then
  // spawns and writes x[1] under {b}.  No pair races: the write and the
  // child's x[1] read share b.  The kept child records lie side by side
  // with one sid, so a store that merged them by sid would stretch the {a}
  // record over x[1] and report a false race.
  auto body = [](Spinlock& a, Spinlock& b, std::uint64_t* x) {
    return [&a, &b, x] {
      rt::SpawnScope sc;
      sc.spawn([&a, &b, x] {
        {
          InstrumentedLockGuard<Spinlock> ga(a);
          record_read(&x[0], sizeof(x[0]));
        }
        InstrumentedLockGuard<Spinlock> gb(b);
        record_read(&x[1], sizeof(x[1]));
      });
      record_read(x, 2 * sizeof(x[0]));
      sc.spawn([] {});
      {
        InstrumentedLockGuard<Spinlock> gb(b);
        record_write(&x[1], sizeof(x[1]));
      }
      sc.sync();
    };
  };
  for (Det d : kIntervalDetectors) {
    Spinlock a, b;
    std::uint64_t x[2] = {0, 0};
    EXPECT_EQ(run_under(d, body(a, b, x)).distinct, 0u) << det_name(d);
  }
  Spinlock a, b;
  std::uint64_t x[2] = {0, 0};
  oracle::OracleDetector det;
  det.run(body(a, b, x));
  EXPECT_FALSE(det.any_race());
}

TEST(LockSubRecords, TwoSidedReaderKeepsTheLastTwoSubRecords) {
  // The child reads x under {a, b}, then {a}, then {b}; the continuation
  // writes x under {b}.  Only the {a} read races with it.  Applied in
  // non-increasing lockset size, {a} and {b} come last, and the strand's
  // two reader slots must hold those two, not the {a, b} record applied
  // first.
  auto body = [](Spinlock& a, Spinlock& b, std::uint64_t& x) {
    return [&a, &b, &x] {
      rt::SpawnScope sc;
      sc.spawn([&] {
        lock_acquire(&a);
        lock_acquire(&b);
        record_read(&x, sizeof(x));
        lock_release(&b);
        record_read(&x, sizeof(x));
        lock_release(&a);
        InstrumentedLockGuard<Spinlock> gb(b);
        record_read(&x, sizeof(x));
      });
      {
        InstrumentedLockGuard<Spinlock> gb(b);
        record_write(&x, sizeof(x));
      }
      sc.sync();
    };
  };
  for (Det d : {Det::kPintSeq, Det::kPint2, Det::kPintShard3}) {
    Spinlock a, b;
    std::uint64_t x = 0;
    EXPECT_GT(run_under(d, body(a, b, x)).distinct, 0u) << det_name(d);
  }
  Spinlock a, b;
  std::uint64_t x = 0;
  oracle::OracleDetector det;
  det.run(body(a, b, x));
  EXPECT_TRUE(det.any_race());
}

TEST(LockSubRecords, OracleFlagsEveryMixedShape) {
  for (const MixedShape& sh : kMixedShapes) {
    for (bool earlier_reader : {false, true}) {
      Spinlock mu;
      std::uint64_t x = 0;
      oracle::OracleDetector det;
      det.run(mixed_shape_body(sh, mu, x, earlier_reader));
      EXPECT_TRUE(det.any_race()) << sh.name << " earlier=" << earlier_reader;
    }
  }
}

// ---------------------------------------------------------------------------
// Lock-bearing random programs against the oracle
// ---------------------------------------------------------------------------

// Seeds 1..200 of ProgramGen with two locks: small pools and shallow trees,
// so one strand often touches a word under two locksets.  The oracle checks
// every access pair, so a detector report on a program it calls race-free
// is a false positive, and a silent detector on a racy one is a miss.
// kMaxMissed bounds each configuration's misses over the 125 racy programs
// (all_detectors() order).  When the test landed, with one strand segment
// per lockset, STINT missed 2 and every PINT configuration 3; with lock
// sub-records they miss none.  C-RACER still misses 2 (1 to 2 on four
// workers).
constexpr std::uint64_t kLockSeeds = 200;
constexpr int kMaxMissed[] = {0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2};

TEST(RandomLockProgram, NoFalsePositivesAndBoundedMisses) {
  ASSERT_EQ(std::size(kMaxMissed), all_detectors().size());
  std::vector<int> missed(all_detectors().size(), 0);
  for (std::uint64_t seed = 1; seed <= kLockSeeds; ++seed) {
    ProgramConfig cfg;
    cfg.max_depth = 2;
    cfg.pool_bytes = 32;
    cfg.locks = 2;
    ProgramGen gen(seed, cfg);
    auto prog = gen.generate();
    const std::size_t pool = program_pool_bytes(cfg);
    const bool truth = oracle_any_race(*prog, pool);
    for (std::size_t i = 0; i < all_detectors().size(); ++i) {
      const Det d = all_detectors()[i];
      std::vector<unsigned char> mem(pool, 0);
      unsigned char* base = mem.data();
      const PNode* p = prog.get();
      const DetRun r = run_under(d, [p, base] { exec_node(*p, base); });
      if (!truth) {
        EXPECT_FALSE(r.any_race)
            << "false positive under " << det_name(d) << " seed=" << seed;
      } else if (!r.any_race) {
        ++missed[i];
      }
    }
  }
  for (std::size_t i = 0; i < all_detectors().size(); ++i) {
    EXPECT_LE(missed[i], kMaxMissed[i]) << det_name(all_detectors()[i]);
  }
}

// ---------------------------------------------------------------------------
// Lock lanes (DESIGN.md §9.1, §12.3): a repeated lockset transition is a
// lane switch inside the access cursor.  The cursor route and the
// fast-path-off route must seal bit-identical sub-records.
// ---------------------------------------------------------------------------

TEST(LockLanes, CursorRouteSealsTheSameSubRecordsOnRandomLockPrograms) {
  // locks = 2 is RandomLockProgram's shape (at most 4 locksets per strand,
  // the cursor's lane count); locks = 5 visits more locksets than lanes.
  for (const int locks : {2, 5}) {
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
      ProgramConfig cfg;
      cfg.max_depth = 2;
      cfg.pool_bytes = 32;
      cfg.locks = locks;
      auto prog = ProgramGen(seed, cfg).generate();
      std::vector<unsigned char> mem(program_pool_bytes(cfg), 0);
      unsigned char* base = mem.data();
      const PNode* p = prog.get();
      const auto body = [p, base] { exec_node(*p, base); };
      const SubRecordRecorder fast = record_under(true, body);
      const SubRecordRecorder slow = record_under(false, body);
      EXPECT_EQ(fast.sealed, slow.sealed)
          << "locks=" << locks << " seed=" << seed;
      EXPECT_LE(fast.lock_calls, slow.lock_calls);
    }
  }
}

TEST(LockLanes, AStrandVisitingMoreLocksetsThanLanes) {
  // Seven locks taken in overlapping pairs - {i}, {i, i+1}, {i+1}, {} for
  // each i - give one strand 15 locksets, so lanes are evicted and
  // re-registered, and the strand's sub-record vector reallocates under
  // parked lanes.  Three rounds: later rounds repeat memoized transitions.
  constexpr int kLocks = 7;
  static int mu[kLocks];
  std::vector<std::uint64_t> words(8 * kLocks, 0);
  const auto body = [&] {
    for (int round = 0; round < 3; ++round) {
      for (int i = 0; i < kLocks; ++i) {
        const int j = (i + 1) % kLocks;
        std::uint64_t* w = &words[8 * i];
        lock_acquire(&mu[i]);
        record_write(&w[0], 8);
        lock_acquire(&mu[j]);
        record_read(&w[2], 8);
        lock_release(&mu[i]);  // non-LIFO: {i, j} -> {j}
        record_write(&w[4], 8);
        lock_release(&mu[j]);
        record_read(&w[6], 8);
      }
    }
  };
  const SubRecordRecorder fast = record_under(true, body);
  const SubRecordRecorder slow = record_under(false, body);
  EXPECT_EQ(fast.sealed, slow.sealed);
  ASSERT_EQ(slow.sealed.size(), 2u * kLocks + 1);  // {i}, {i, j}, {} per strand
  EXPECT_EQ(slow.lock_calls, 3u * kLocks * 4);
  EXPECT_LT(fast.lock_calls, slow.lock_calls);
  // Apply order: the seven pairs, then the seven singletons, then {}.
  for (std::size_t r = 0; r < fast.sealed.size(); ++r) {
    const std::size_t size =
        detect::LocksetTable::instance().locks(fast.sealed[r].lsid).size();
    EXPECT_EQ(size, r < kLocks ? 2u : r < 2 * kLocks ? 1u : 0u) << r;
  }
}

TEST(LockLanes, NonLifoReleaseOrder) {
  // acquire A, acquire B, release A, release B: {} -> {A} -> {A,B} -> {B}
  // -> {}, an access under each, twice (the second pass on memoized
  // transitions).
  static int a, b;
  std::uint64_t w[10] = {};
  const auto body = [&] {
    for (int pass = 0; pass < 2; ++pass) {
      lock_acquire(&a);
      record_write(&w[0], 8);
      lock_acquire(&b);
      record_write(&w[2], 8);
      lock_release(&a);
      record_write(&w[4], 8);
      lock_release(&b);
      record_write(&w[6], 8);
    }
  };
  auto one = [&](int i) {
    return std::vector<detect::Interval>{
        {detect::addr_of(&w[i]), detect::addr_of(&w[i]) + 7}};
  };
  const std::vector<SealedRecord> want = {
      {1, lockset_of({&a, &b}), {}, one(2)},
      {1, lockset_of({&a}), {}, one(0)},
      {1, lockset_of({&b}), {}, one(4)},
      {1, 0, {}, one(6)}};
  const SubRecordRecorder fast = record_under(true, body);
  const SubRecordRecorder slow = record_under(false, body);
  EXPECT_EQ(fast.sealed, want);
  EXPECT_EQ(slow.sealed, want);
  EXPECT_EQ(slow.lock_calls, 8u);
  EXPECT_EQ(fast.lock_calls, 4u);  // the second pass never left the cursor

  // The verdict: the continuation's access under {B} alone races with a
  // child holding only A, and not with one holding B.
  for (Det d : kIntervalDetectors) {
    for (const bool child_holds_b : {false, true}) {
      std::uint64_t shared = 0;
      const DetRun r = run_under(d, [&] {
        rt::SpawnScope sc;
        sc.spawn([&] {
          const void* m = child_holds_b ? &b : &a;
          lock_acquire(m);
          record_write(&shared, sizeof(shared));
          lock_release(m);
        });
        lock_acquire(&a);
        lock_acquire(&b);
        lock_release(&a);
        record_write(&shared, sizeof(shared));
        lock_release(&b);
        sc.sync();
      });
      EXPECT_EQ(r.distinct > 0, !child_holds_b)
          << det_name(d) << " child_holds_b=" << child_holds_b;
    }
  }
}

TEST(LockLanes, RecursiveAndUnmatchedEventsChangeNothing) {
  // With the {} lane parked, a recursive acquire of A and an unmatched
  // release of B leave the strand in {A}; back in {}, an unmatched release
  // of A leaves it there.  Three passes: the later ones are all switched
  // inside the cursor.
  static int a, b;
  std::uint64_t w[10] = {};
  const auto body = [&] {
    for (int pass = 0; pass < 3; ++pass) {
      lock_acquire(&a);
      record_write(&w[0], 8);
      lock_acquire(&a);
      record_write(&w[2], 8);
      lock_release(&b);
      record_write(&w[4], 8);
      lock_release(&a);
      record_write(&w[6], 8);
      lock_release(&a);
      record_write(&w[8], 8);
    }
  };
  auto words = [&](std::initializer_list<int> is) {
    std::vector<detect::Interval> out;
    for (int i : is) {
      out.push_back({detect::addr_of(&w[i]), detect::addr_of(&w[i]) + 7});
    }
    return out;
  };
  const std::vector<SealedRecord> want = {
      {1, lockset_of({&a}), {}, words({0, 2, 4})},
      {1, 0, {}, words({6, 8})}};
  const SubRecordRecorder fast = record_under(true, body);
  const SubRecordRecorder slow = record_under(false, body);
  EXPECT_EQ(fast.sealed, want);
  EXPECT_EQ(slow.sealed, want);
  EXPECT_EQ(slow.lock_calls, 15u);
  EXPECT_EQ(fast.lock_calls, 5u);
}

TEST(LockAblation, LockEdgesOffIgnoresEventsOnTheCursorRoute) {
  // A lock-edges run first memoizes the kernel's transitions on this
  // thread's cursor; the lock-edges-off runs of the same instance (same
  // mutex) must still ignore every lock event: the fork-join verdict, and
  // no sub-record beyond each strand's first.
  kernels::KernelConfig kc;
  kc.scale = 0.5;
  auto k = kernels::make_kernel("lktwin", kc);
  for (Det d : {Det::kStint, Det::kPintSeq}) {
    k->prepare();
    const DetRun warm = run_under(d, [&] { k->run(); });
    EXPECT_FALSE(warm.any_race) << det_name(d);
    EXPECT_GT(warm.stats.lock_splits, 0u) << det_name(d);
    k->prepare();
    DetRun off;
    if (d == Det::kStint) {
      stint::StintDetector::Options o;
      o.tuning.lock_edges = false;
      stint::StintDetector det(o);
      det.run([&] { k->run(); });
      off.any_race = det.reporter().any();
      off.stats = det.stats().snapshot();
    } else {
      pintd::PintDetector::Options o;
      o.core_workers = 1;
      o.parallel_history = false;
      o.tuning.lock_edges = false;
      pintd::PintDetector det(o);
      det.run([&] { k->run(); });
      off.any_race = det.reporter().any();
      off.stats = det.stats().snapshot();
    }
    EXPECT_TRUE(off.any_race) << det_name(d);
    EXPECT_EQ(off.stats.lock_splits, 0u) << det_name(d);
  }
}

}  // namespace
}  // namespace pint::test
