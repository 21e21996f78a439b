// Equivalence regression for the bulk sorted-run apply (DESIGN.md §10): the
// *_run store operations must be invisible to detection results.  The
// store tests are the reference: randomized interleaved runs/erases compare
// the run API against per-interval loops - exact callback/resolver
// sequences, final contents and invariants - plus targeted edge shapes
// (segments spanning several run intervals, runs ending at kMaxAddr, the
// no-cross-interval coalescing rule, the GranuleMap shims).  The detector
// tests check the one apply path against the oracle's verdict in every
// history schedule, and the per-interval route (raw, non-canonical lists)
// against the run route.  tests/test_history.cpp holds the driver's
// schedule-equivalence test.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <tuple>
#include <vector>

#include "common.hpp"
#include "detect/granule_map.hpp"
#include "kernels/kernels.hpp"
#include "store/interval_store.hpp"

using namespace pint;

namespace {

constexpr store::addr_t kMaxAddr = ~store::addr_t(0);

struct Iv {
  store::addr_t lo, hi;
};

store::Accessor acc(std::uint64_t sid) { return {{}, sid}; }

// Event log entry: op tag, segment bounds, accessor sid.
using Ev = std::tuple<char, std::uint64_t, std::uint64_t, std::uint64_t>;
// Stored interval: (lo, hi, sid).
using Seg = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>;

template <class Store>
std::uint64_t sid_of(const Store& t, store::Handle h) {
  return t.table()[h].sid;
}

std::vector<Seg> contents(const store::IntervalStore& t) {
  std::vector<Seg> out;
  t.for_each([&](auto lo, auto hi, store::Handle w) {
    out.push_back({lo, hi, sid_of(t, w)});
  });
  return out;
}

/// Deterministic winner rule shared by both twins of every reader test.
bool new_wins(std::uint64_t prev_sid, std::uint64_t sid) {
  return ((prev_sid * 31 + sid) & 1) == 0;
}

/// Callback logging (tag, lo, hi, sid) of t's segments into ev.
template <class Store>
auto log_to(const Store& t, std::vector<Ev>& ev, char tag) {
  return [&t, &ev, tag](auto lo, auto hi, store::Handle w) {
    ev.push_back({tag, lo, hi, sid_of(t, w)});
  };
}
/// Resolver applying new_wins to t's handles, logging each call into ev.
template <class Store>
auto resolve_logged(const Store& t, std::vector<Ev>& ev) {
  return [&t, &ev](store::Handle p, store::Handle a) {
    ev.push_back({'r', sid_of(t, p), sid_of(t, a), 0});
    return new_wins(sid_of(t, p), sid_of(t, a)) ? a : p;
  };
}
/// The new reader always wins; prev always keeps.
auto take_new = [](store::Handle, store::Handle a) { return a; };
auto keep_prev = [](store::Handle p, store::Handle) { return p; };
auto no_events = [](auto, auto, store::Handle) {};

/// A sorted, pairwise-disjoint run (adjacency allowed) - the finalized
/// strand-record shape the run API is specified for.
std::vector<Iv> random_run(Xoshiro256& rng, std::uint64_t span) {
  const std::size_t k = 1 + rng.next_below(8);
  std::vector<Iv> run;
  std::uint64_t lo = rng.next_below(span);
  for (std::size_t j = 0; j < k; ++j) {
    const std::uint64_t len = 1 + rng.next_below(96);
    run.push_back({lo, lo + len - 1});
    lo += len + rng.next_below(3);  // gap 0 = adjacent (still disjoint)
  }
  return run;
}

/// One op of strand `sid` on the per-interval twin and the run twin.  The
/// per-interval twin interns the accessor once per interval, the run twin
/// once per run: the table's reuse of its last entry must make the two
/// tables equal.
template <class Store>
void twin_op(int kind, const std::vector<Iv>& r, std::uint64_t sid, Store& per,
             Store& run, std::vector<Ev>& ev_per, std::vector<Ev>& ev_run) {
  switch (kind) {
    case 0:  // writer insert
      for (const Iv& iv : r) {
        per.insert_writer(iv.lo, iv.hi, per.intern(acc(sid)),
                          log_to(per, ev_per, 'w'));
      }
      run.insert_writer_run(r.data(), r.size(), run.intern(acc(sid)),
                            log_to(run, ev_run, 'w'));
      break;
    case 1:  // reader insert
      for (const Iv& iv : r) {
        per.insert_reader(iv.lo, iv.hi, per.intern(acc(sid)),
                          resolve_logged(per, ev_per));
      }
      run.insert_reader_run(r.data(), r.size(), run.intern(acc(sid)),
                            resolve_logged(run, ev_run));
      break;
    case 2:  // query
      for (const Iv& iv : r) per.query(iv.lo, iv.hi, log_to(per, ev_per, 'q'));
      run.query_run(r.data(), r.size(), log_to(run, ev_run, 'q'));
      break;
    case 3:  // erase
      for (const Iv& iv : r) per.erase_range(iv.lo, iv.hi);
      run.erase_run(r.data(), r.size());
      break;
  }
}

// ---------------------------------------------------------------------------
// Treap-level equivalence
// ---------------------------------------------------------------------------

TEST(TreapRunApi, RandomizedRunsMatchPerRecordExactly) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Xoshiro256 rng(seed);
    store::IntervalStore per, run;
    std::vector<Ev> ev_per, ev_run;
    for (int step = 0; step < 200; ++step) {
      const auto r = random_run(rng, 1 << 14);
      const std::uint64_t sid = 2 + std::uint64_t(step);
      twin_op(int(rng.next_below(4)), r, sid, per, run, ev_per, ev_run);
      ASSERT_EQ(ev_per, ev_run) << "seed=" << seed << " step=" << step;
      ASSERT_EQ(per.table().size(), run.table().size())
          << "seed=" << seed << " step=" << step;
      if (step % 25 == 0) {
        ASSERT_EQ(contents(per), contents(run))
            << "seed=" << seed << " step=" << step;
        ASSERT_TRUE(run.check_invariants());
        ASSERT_EQ(per.size(), run.size());
      }
    }
    EXPECT_EQ(contents(per), contents(run)) << "seed=" << seed;
    EXPECT_TRUE(per.check_invariants());
    EXPECT_TRUE(run.check_invariants());
  }
}

/// Strided runs: tiny intervals with gaps orders of magnitude wider (the
/// fft butterfly shape).  The leaf finger re-descends for most of them, and
/// they must stay indistinguishable from the per-record twin while the
/// store's gap coverage (written by interleaved dense runs) sits inside
/// every sparse span.
TEST(TreapRunApi, SparseStridedRunsMatchPerRecordExactly) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Xoshiro256 rng(seed);
    store::IntervalStore per, run;
    std::vector<Ev> ev_per, ev_run;
    auto strided_run = [&]() {
      const std::size_t k = 2 + rng.next_below(31);
      std::vector<Iv> r;
      std::uint64_t lo = rng.next_below(1 << 14);
      for (std::size_t j = 0; j < k; ++j) {
        const std::uint64_t len = 1 + rng.next_below(8);
        r.push_back({lo, lo + len - 1});
        lo += len + 256 + rng.next_below(768);  // gap >> len: sparse
      }
      return r;
    };
    for (int step = 0; step < 150; ++step) {
      const bool sparse = rng.next_below(2) == 0;
      const auto r = sparse ? strided_run() : random_run(rng, 1 << 15);
      const std::uint64_t sid = 2 + std::uint64_t(step);
      twin_op(int(rng.next_below(4)), r, sid, per, run, ev_per, ev_run);
      ASSERT_EQ(ev_per, ev_run) << "seed=" << seed << " step=" << step;
      ASSERT_EQ(per.table().size(), run.table().size())
          << "seed=" << seed << " step=" << step;
      if (step % 25 == 0) {
        ASSERT_EQ(contents(per), contents(run))
            << "seed=" << seed << " step=" << step;
        ASSERT_TRUE(run.check_invariants());
      }
    }
    EXPECT_EQ(contents(per), contents(run)) << "seed=" << seed;
    EXPECT_TRUE(per.check_invariants());
    EXPECT_TRUE(run.check_invariants());
  }
}

TEST(TreapRunApi, SegmentSpanningSeveralRunIntervalsIsTrimmedPerInterval) {
  store::IntervalStore t;
  t.insert_writer(0, 999, t.intern(acc(1)), no_events);
  const Iv run[] = {{100, 199}, {300, 399}, {500, 599}};
  std::vector<Ev> ev;
  t.insert_writer_run(run, 3, t.intern(acc(2)), log_to(t, ev, 'w'));
  // One stored segment overlapping three run intervals fires once per
  // interval, trimmed to it, in address order.
  const std::vector<Ev> want = {
      {'w', 100, 199, 1}, {'w', 300, 399, 1}, {'w', 500, 599, 1}};
  EXPECT_EQ(ev, want);
  // Gap coverage survives with its original owner; run intervals are owned
  // by the new accessor.
  const std::vector<Seg> got = contents(t);
  const std::vector<Seg> want_c = {{0, 99, 1},    {100, 199, 2}, {200, 299, 1},
                                   {300, 399, 2}, {400, 499, 1}, {500, 599, 2},
                                   {600, 999, 1}};
  EXPECT_EQ(got, want_c);
  EXPECT_TRUE(t.check_invariants());
}

TEST(TreapRunApi, RunsEndingAtMaxAddrMatchPerRecord) {
  const Iv run[] = {{kMaxAddr - 300, kMaxAddr - 201},
                    {kMaxAddr - 100, kMaxAddr}};
  for (const bool reader : {false, true}) {
    store::IntervalStore per, bulk;
    for (store::IntervalStore* t : {&per, &bulk}) {
      t->insert_writer(kMaxAddr - 350, kMaxAddr - 250, t->intern(acc(1)),
                       no_events);
      t->insert_writer(kMaxAddr - 50, kMaxAddr, t->intern(acc(1)), no_events);
    }
    std::vector<Ev> ev_per, ev_run;
    if (reader) {
      for (const Iv& iv : run) {
        per.insert_reader(iv.lo, iv.hi, per.intern(acc(2)),
                          resolve_logged(per, ev_per));
      }
      bulk.insert_reader_run(run, 2, bulk.intern(acc(2)),
                             resolve_logged(bulk, ev_run));
    } else {
      for (const Iv& iv : run) {
        per.insert_writer(iv.lo, iv.hi, per.intern(acc(2)),
                          log_to(per, ev_per, 'w'));
      }
      bulk.insert_writer_run(run, 2, bulk.intern(acc(2)),
                             log_to(bulk, ev_run, 'w'));
    }
    EXPECT_EQ(ev_per, ev_run) << "reader=" << reader;
    EXPECT_EQ(contents(per), contents(bulk)) << "reader=" << reader;
    EXPECT_EQ(per.table().size(), bulk.table().size()) << "reader=" << reader;
    EXPECT_TRUE(bulk.check_invariants());
  }
}

// Regression for the hi+1 wrap at kMaxAddr in the per-record reader insert
// (found while deriving the run variant): the tail-gap push must not wrap
// cursor past kMaxAddr and emit a bogus [0, kMaxAddr] piece.
TEST(TreapRunApi, PerRecordReaderInsertAtMaxAddrDoesNotWrap) {
  store::IntervalStore t;
  t.insert_reader(kMaxAddr - 7, kMaxAddr, t.intern(acc(1)), take_new);
  std::vector<Seg> want = {{kMaxAddr - 7, kMaxAddr, 1}};
  EXPECT_EQ(contents(t), want);
  // Now with existing coverage ending exactly at kMaxAddr (the loop-exit
  // case rather than the tail case).
  t.insert_reader(kMaxAddr - 15, kMaxAddr, t.intern(acc(2)), keep_prev);
  want = {{kMaxAddr - 15, kMaxAddr - 8, 2}, {kMaxAddr - 7, kMaxAddr, 1}};
  EXPECT_EQ(contents(t), want);
  EXPECT_TRUE(t.check_invariants());
}

TEST(TreapRunApi, ReaderRunNeverCoalescesAcrossIntervalBoundaries) {
  // Adjacent run intervals with the same winner: k separate insert_reader
  // calls leave k nodes (coalescing is per-call), so the run variant must
  // too - this is what keeps final contents bit-identical.
  const Iv run[] = {{0, 63}, {64, 127}, {128, 191}};
  store::IntervalStore per, bulk;
  for (const Iv& iv : run) {
    per.insert_reader(iv.lo, iv.hi, per.intern(acc(1)), take_new);
  }
  bulk.insert_reader_run(run, 3, bulk.intern(acc(1)), take_new);
  EXPECT_EQ(per.size(), 3u);
  EXPECT_EQ(contents(per), contents(bulk));
  // Within one interval coalescing still applies: fragmented prior coverage
  // resolved to one winner collapses to one node either way.
  store::IntervalStore frag;
  frag.insert_writer(200, 219, frag.intern(acc(2)), no_events);
  frag.insert_writer(230, 249, frag.intern(acc(3)), no_events);
  const Iv one[] = {{200, 259}};
  frag.insert_reader_run(one, 1, frag.intern(acc(4)), take_new);
  EXPECT_EQ(contents(frag), (std::vector<Seg>{{200, 259, 4}}));
}

TEST(TreapRunApi, EraseRunPreservesGapCoverage) {
  store::IntervalStore t;
  t.insert_writer(0, 999, t.intern(acc(1)), no_events);
  const Iv run[] = {{0, 99}, {200, 299}, {900, 999}};
  t.erase_run(run, 3);
  const std::vector<Seg> want = {{100, 199, 1}, {300, 899, 1}};
  EXPECT_EQ(contents(t), want);
  EXPECT_TRUE(t.check_invariants());
}

TEST(GranuleMapRunShims, MatchPerIntervalLoops) {
  Xoshiro256 rng(21);
  detect::GranuleMap per, bulk;
  std::vector<Ev> ev_per, ev_run;
  for (int step = 0; step < 60; ++step) {
    const auto r = random_run(rng, 1 << 12);
    const std::uint64_t sid = 2 + std::uint64_t(step);
    twin_op(int(rng.next_below(4)), r, sid, per, bulk, ev_per, ev_run);
    ASSERT_EQ(ev_per, ev_run) << "step=" << step;
    ASSERT_EQ(per.size(), bulk.size()) << "step=" << step;
    ASSERT_EQ(per.table().size(), bulk.table().size()) << "step=" << step;
  }
}

// ---------------------------------------------------------------------------
// Whole detectors: the one apply path against the oracle and the verdict
// ---------------------------------------------------------------------------

using PairKey = std::tuple<std::uint64_t, std::uint64_t, int, int>;

enum class Sys { kStint, kStintMap, kPintSeq, kPint1, kShard3 };

struct RunOut {
  std::vector<PairKey> pairs;  // sorted + deduped
  std::uint64_t distinct = 0;
  std::uint64_t dropped = 0;
  detect::Stats::Snapshot stats{};
};

RunOut summarize(const detect::RaceReporter& rep, const detect::Stats& stats) {
  RunOut out;
  for (const detect::RaceRecord& r : rep.records()) {
    std::uint64_t a = r.prev_sid, b = r.cur_sid;
    int aw = r.prev_write, bw = r.cur_write;
    if (a > b) {
      std::swap(a, b);
      std::swap(aw, bw);
    }
    out.pairs.push_back({a, b, aw, bw});
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
                  bool coalesce = true, std::uint64_t seed = 7) {
  if (sys == Sys::kStint || sys == Sys::kStintMap) {
    stint::StintDetector::Options o;
    o.seed = seed;
    o.coalesce = coalesce;
    if (sys == Sys::kStintMap) o.history = detect::HistoryKind::kGranuleMap;
    stint::StintDetector det(o);
    det.run(body);
    return summarize(det.reporter(), det.stats());
  }
  pintd::PintDetector::Options o;
  o.seed = seed;
  o.coalesce = coalesce;
  o.parallel_history = sys != Sys::kPintSeq;
  // One core worker always: with 2+, work stealing makes strand ids
  // nondeterministic and the pair sets incomparable across runs.  The
  // history lanes / shard workers under test are fully parallel
  // regardless.
  o.core_workers = 1;
  if (sys == Sys::kShard3) o.history_shards = 3;
  pintd::PintDetector det(o);
  det.run(body);
  return summarize(det.reporter(), det.stats());
}

class KernelBulkApply : public ::testing::TestWithParam<std::string> {};

// Every history schedule of the seeded kernel gives the oracle's verdict;
// the deterministic ones take the run path (canonical lists), and the
// pipelined and sharded PINT histories report the phased one's races.
TEST_P(KernelBulkApply, EveryScheduleMatchesTheOracleVerdict) {
  kernels::KernelConfig cfg;
  cfg.scale = 0.1;
  cfg.seeded_race = true;  // non-trivial race sets to compare
  auto fresh = [&] {
    auto k = kernels::make_kernel(GetParam(), cfg);
    k->prepare();
    return k;
  };
  bool oracle_race = false;
  {
    auto k = fresh();
    oracle::OracleDetector det;
    det.run([&] { k->run(); });
    oracle_race = det.any_race();
  }
  EXPECT_TRUE(oracle_race);
  RunOut phased;
  for (Sys sys :
       {Sys::kStint, Sys::kStintMap, Sys::kPintSeq, Sys::kPint1, Sys::kShard3}) {
    auto k = fresh();
    const RunOut out = run_config(sys, [&] { k->run(); });
    EXPECT_EQ(out.distinct > 0, oracle_race) << "sys=" << int(sys);
    if (sys == Sys::kStint || sys == Sys::kStintMap || sys == Sys::kPintSeq) {
      EXPECT_GT(out.stats.bulk_runs, 0u) << "sys=" << int(sys);
      EXPECT_GE(out.stats.bulk_run_intervals, out.stats.bulk_runs);
    }
    if (sys == Sys::kPintSeq) phased = out;
    if (sys == Sys::kPint1 || sys == Sys::kShard3) {
      EXPECT_EQ(out.distinct, phased.distinct) << "sys=" << int(sys);
      if (out.dropped == 0 && phased.dropped == 0) {
        EXPECT_EQ(out.pairs, phased.pairs) << "sys=" << int(sys);
      }
    }
  }
}

TEST_P(KernelBulkApply, RaceFreeKernelStaysRaceFreeUnderBulk) {
  kernels::KernelConfig cfg;
  cfg.scale = 0.1;
  auto k = kernels::make_kernel(GetParam(), cfg);
  k->prepare();
  const RunOut out = run_config(Sys::kShard3, [&] { k->run(); });
  EXPECT_EQ(out.distinct, 0u) << "bulk apply introduced a false race";
  EXPECT_TRUE(k->verify());
}

INSTANTIATE_TEST_SUITE_P(All, KernelBulkApply,
                         ::testing::ValuesIn(kernels::kernel_names()),
                         [](const auto& info) { return info.param; });

// Random series-parallel programs: denser spawn/sync structure and irregular
// interval lists (single-interval and empty records mixed with long runs).
// Coalescing off leaves raw (non-canonical) buffers, which the driver hands
// to the stores one interval at a time: both routes must give the oracle's
// verdict and the same race pairs.
TEST(RandomProgramBulkApply, RunAndPerIntervalRoutesMatchTheOracle) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    test::ProgramConfig pc;
    auto prog = test::ProgramGen(seed, pc).generate();
    std::vector<unsigned char> pool(test::program_pool_bytes(pc), 0);
    unsigned char* base = pool.data();
    const test::PNode* p = prog.get();
    const auto body = [p, base] { test::exec_node(*p, base); };

    const bool oracle_race =
        test::oracle_any_race(*p, test::program_pool_bytes(pc));
    const RunOut runs = run_config(Sys::kStint, body);
    const RunOut raw = run_config(Sys::kStint, body, false);
    EXPECT_EQ(runs.distinct > 0, oracle_race) << "seed=" << seed;
    EXPECT_EQ(raw.distinct > 0, oracle_race) << "seed=" << seed;
    EXPECT_EQ(runs.distinct, raw.distinct) << "seed=" << seed;
    if (runs.dropped == 0 && raw.dropped == 0) {
      EXPECT_EQ(runs.pairs, raw.pairs) << "seed=" << seed;
    }
    // Only single-interval raw lists are canonical: every run holds one.
    EXPECT_EQ(raw.stats.bulk_run_intervals, raw.stats.bulk_runs)
        << "seed=" << seed;
  }
}

}  // namespace
