// Equivalence regression for the bulk sorted-run apply (DESIGN.md §10): the
// *_run store operations and the batched history-lane consumption must be
// invisible to detection results.  Checked at three strengths:
//
//  * store unit tests: randomized interleaved runs/erases compare the run
//    API against per-interval loops - exact callback/resolver sequences,
//    final contents and invariants - plus targeted edge shapes (segments
//    spanning several run intervals, runs ending at kMaxAddr, the
//    no-cross-interval coalescing rule, the GranuleMap shims);
//  * deterministic detectors (STINT, phased one-core PINT): full race
//    RECORDS are bit-identical with the bulk knob on vs off;
//  * pipelined / sharded PINT: the distinct count always matches and the
//    pair set matches whenever the reporter cap was not hit (same caveat as
//    test_access_path.cpp - sharded mode interleaves the three stores per
//    batch, which moves records() sampling order but never the set).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <tuple>
#include <vector>

#include "common.hpp"
#include "detect/granule_map.hpp"
#include "detect/history.hpp"
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

std::vector<Seg> contents(const store::IntervalStore& t) {
  std::vector<Seg> out;
  t.for_each([&](auto lo, auto hi, const auto& w) {
    out.push_back({lo, hi, w.sid});
  });
  return out;
}

/// Deterministic winner rule shared by both twins of every reader test.
store::Accessor resolve_by_sid(const store::Accessor& prev,
                               const store::Accessor& a) {
  return ((prev.sid * 31 + a.sid) & 1) == 0 ? a : prev;
}

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

// ---------------------------------------------------------------------------
// Treap-level equivalence
// ---------------------------------------------------------------------------

TEST(TreapRunApi, RandomizedRunsMatchPerRecordExactly) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Xoshiro256 rng(seed);
    store::IntervalStore per, run;
    std::vector<Ev> ev_per, ev_run;
    auto log_to = [](std::vector<Ev>& ev, char tag) {
      return [&ev, tag](auto lo, auto hi, const auto& w) {
        ev.push_back({tag, lo, hi, w.sid});
      };
    };
    for (int step = 0; step < 200; ++step) {
      const auto r = random_run(rng, 1 << 14);
      const std::uint64_t sid = 2 + std::uint64_t(step);
      switch (rng.next_below(4)) {
        case 0:  // writer insert
          for (const Iv& iv : r) {
            per.insert_writer(iv.lo, iv.hi, acc(sid), log_to(ev_per, 'w'));
          }
          run.insert_writer_run(r.data(), r.size(), acc(sid),
                                log_to(ev_run, 'w'));
          break;
        case 1:  // reader insert
          for (const Iv& iv : r) {
            per.insert_reader(iv.lo, iv.hi, acc(sid), [&](const auto& p,
                                                          const auto& a) {
              ev_per.push_back({'r', p.sid, a.sid, 0});
              return resolve_by_sid(p, a);
            });
          }
          run.insert_reader_run(r.data(), r.size(), acc(sid),
                                [&](const auto& p, const auto& a) {
                                  ev_run.push_back({'r', p.sid, a.sid, 0});
                                  return resolve_by_sid(p, a);
                                });
          break;
        case 2:  // query
          for (const Iv& iv : r) {
            per.query(iv.lo, iv.hi, log_to(ev_per, 'q'));
          }
          run.query_run(r.data(), r.size(), log_to(ev_run, 'q'));
          break;
        case 3:  // erase
          for (const Iv& iv : r) per.erase_range(iv.lo, iv.hi);
          run.erase_run(r.data(), r.size());
          break;
      }
      ASSERT_EQ(ev_per, ev_run) << "seed=" << seed << " step=" << step;
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
    auto log_to = [](std::vector<Ev>& ev, char tag) {
      return [&ev, tag](auto lo, auto hi, const auto& w) {
        ev.push_back({tag, lo, hi, w.sid});
      };
    };
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
      switch (rng.next_below(4)) {
        case 0:
          for (const Iv& iv : r) {
            per.insert_writer(iv.lo, iv.hi, acc(sid), log_to(ev_per, 'w'));
          }
          run.insert_writer_run(r.data(), r.size(), acc(sid),
                                log_to(ev_run, 'w'));
          break;
        case 1:
          for (const Iv& iv : r) {
            per.insert_reader(iv.lo, iv.hi, acc(sid),
                              [&](const auto& p, const auto& a) {
                                ev_per.push_back({'r', p.sid, a.sid, 0});
                                return resolve_by_sid(p, a);
                              });
          }
          run.insert_reader_run(r.data(), r.size(), acc(sid),
                                [&](const auto& p, const auto& a) {
                                  ev_run.push_back({'r', p.sid, a.sid, 0});
                                  return resolve_by_sid(p, a);
                                });
          break;
        case 2:
          for (const Iv& iv : r) per.query(iv.lo, iv.hi, log_to(ev_per, 'q'));
          run.query_run(r.data(), r.size(), log_to(ev_run, 'q'));
          break;
        case 3:
          for (const Iv& iv : r) per.erase_range(iv.lo, iv.hi);
          run.erase_run(r.data(), r.size());
          break;
      }
      ASSERT_EQ(ev_per, ev_run) << "seed=" << seed << " step=" << step;
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
  t.insert_writer(0, 999, acc(1), [](auto, auto, const auto&) {});
  const Iv run[] = {{100, 199}, {300, 399}, {500, 599}};
  std::vector<Ev> ev;
  t.insert_writer_run(run, 3, acc(2), [&](auto lo, auto hi, const auto& w) {
    ev.push_back({'w', lo, hi, w.sid});
  });
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
      t->insert_writer(kMaxAddr - 350, kMaxAddr - 250, acc(1),
                       [](auto, auto, const auto&) {});
      t->insert_writer(kMaxAddr - 50, kMaxAddr, acc(1),
                       [](auto, auto, const auto&) {});
    }
    std::vector<Ev> ev_per, ev_run;
    if (reader) {
      for (const Iv& iv : run) {
        per.insert_reader(iv.lo, iv.hi, acc(2), [&](const auto& p,
                                                    const auto& a) {
          ev_per.push_back({'r', p.sid, a.sid, 0});
          return resolve_by_sid(p, a);
        });
      }
      bulk.insert_reader_run(run, 2, acc(2), [&](const auto& p,
                                                 const auto& a) {
        ev_run.push_back({'r', p.sid, a.sid, 0});
        return resolve_by_sid(p, a);
      });
    } else {
      for (const Iv& iv : run) {
        per.insert_writer(iv.lo, iv.hi, acc(2),
                          [&](auto lo, auto hi, const auto& w) {
                            ev_per.push_back({'w', lo, hi, w.sid});
                          });
      }
      bulk.insert_writer_run(run, 2, acc(2),
                             [&](auto lo, auto hi, const auto& w) {
                               ev_run.push_back({'w', lo, hi, w.sid});
                             });
    }
    EXPECT_EQ(ev_per, ev_run) << "reader=" << reader;
    EXPECT_EQ(contents(per), contents(bulk)) << "reader=" << reader;
    EXPECT_TRUE(bulk.check_invariants());
  }
}

// Regression for the hi+1 wrap at kMaxAddr in the per-record reader insert
// (found while deriving the run variant): the tail-gap push must not wrap
// cursor past kMaxAddr and emit a bogus [0, kMaxAddr] piece.
TEST(TreapRunApi, PerRecordReaderInsertAtMaxAddrDoesNotWrap) {
  store::IntervalStore t;
  t.insert_reader(kMaxAddr - 7, kMaxAddr, acc(1),
                  [](const auto&, const auto& a) { return a; });
  std::vector<Seg> want = {{kMaxAddr - 7, kMaxAddr, 1}};
  EXPECT_EQ(contents(t), want);
  // Now with existing coverage ending exactly at kMaxAddr (the loop-exit
  // case rather than the tail case).
  t.insert_reader(kMaxAddr - 15, kMaxAddr, acc(2),
                  [](const auto& p, const auto&) { return p; });
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
    per.insert_reader(iv.lo, iv.hi, acc(1),
                      [](const auto&, const auto& a) { return a; });
  }
  bulk.insert_reader_run(run, 3, acc(1),
                         [](const auto&, const auto& a) { return a; });
  EXPECT_EQ(per.size(), 3u);
  EXPECT_EQ(contents(per), contents(bulk));
  // Within one interval coalescing still applies: fragmented prior coverage
  // resolved to one winner collapses to one node either way.
  store::IntervalStore frag;
  frag.insert_writer(200, 219, acc(2), [](auto, auto, const auto&) {});
  frag.insert_writer(230, 249, acc(3), [](auto, auto, const auto&) {});
  const Iv one[] = {{200, 259}};
  frag.insert_reader_run(one, 1, acc(4),
                         [](const auto&, const auto& a) { return a; });
  EXPECT_EQ(contents(frag), (std::vector<Seg>{{200, 259, 4}}));
}

TEST(TreapRunApi, EraseRunPreservesGapCoverage) {
  store::IntervalStore t;
  t.insert_writer(0, 999, acc(1), [](auto, auto, const auto&) {});
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
    switch (rng.next_below(4)) {
      case 0:
        for (const Iv& iv : r) {
          per.insert_writer(iv.lo, iv.hi, acc(sid),
                            [&](auto lo, auto hi, const auto& w) {
                              ev_per.push_back({'w', lo, hi, w.sid});
                            });
        }
        bulk.insert_writer_run(r.data(), r.size(), acc(sid),
                               [&](auto lo, auto hi, const auto& w) {
                                 ev_run.push_back({'w', lo, hi, w.sid});
                               });
        break;
      case 1:
        for (const Iv& iv : r) {
          per.insert_reader(iv.lo, iv.hi, acc(sid), resolve_by_sid);
        }
        bulk.insert_reader_run(r.data(), r.size(), acc(sid), resolve_by_sid);
        break;
      case 2:
        for (const Iv& iv : r) {
          per.query(iv.lo, iv.hi, [&](auto lo, auto hi, const auto& w) {
            ev_per.push_back({'q', lo, hi, w.sid});
          });
        }
        bulk.query_run(r.data(), r.size(),
                       [&](auto lo, auto hi, const auto& w) {
                         ev_run.push_back({'q', lo, hi, w.sid});
                       });
        break;
      case 3:
        for (const Iv& iv : r) per.erase_range(iv.lo, iv.hi);
        bulk.erase_run(r.data(), r.size());
        break;
    }
    ASSERT_EQ(ev_per, ev_run) << "step=" << step;
    ASSERT_EQ(per.size(), bulk.size()) << "step=" << step;
  }
}

// ---------------------------------------------------------------------------
// Whole-detector equivalence (bulk knob on vs off)
// ---------------------------------------------------------------------------

// RAII: tests flip the global bulk-apply knob; never leak the setting.
struct BulkGuard {
  bool saved = detect::bulk_apply();
  ~BulkGuard() { detect::set_bulk_apply(saved); }
};

// Full record: (prev_sid, cur_sid, prev_write, cur_write, lo, hi).
using FullRecord = std::tuple<std::uint64_t, std::uint64_t, int, int,
                              std::uint64_t, std::uint64_t>;
using PairKey = std::tuple<std::uint64_t, std::uint64_t, int, int>;

enum class Sys { kStint, kStintMap, kPintSeq, kPint1, kShard3 };

struct RunOut {
  std::vector<FullRecord> rebased;  // sorted, addresses rebased to run min
  std::vector<PairKey> pairs;       // sorted + deduped
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

RunOut run_config(Sys sys, bool bulk, const std::function<void()>& body,
                  bool coalesce = true, std::uint64_t seed = 7) {
  BulkGuard g;
  detect::set_bulk_apply(bulk);
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
  // bulk-sensitive machinery under test (history lanes / shard workers)
  // is fully parallel regardless.
  o.core_workers = 1;
  if (sys == Sys::kShard3) o.history_shards = 3;
  pintd::PintDetector det(o);
  det.run(body);
  return summarize(det.reporter(), det.stats());
}

class KernelBulkApply : public ::testing::TestWithParam<std::string> {};

TEST_P(KernelBulkApply, BulkIsBitIdenticalOnDeterministicDetectors) {
  kernels::KernelConfig cfg;
  cfg.scale = 0.1;
  cfg.seeded_race = true;  // non-trivial race sets to compare
  for (Sys sys : {Sys::kStint, Sys::kStintMap, Sys::kPintSeq}) {
    auto fresh = [&] {
      auto k = kernels::make_kernel(GetParam(), cfg);
      k->prepare();
      return k;
    };
    auto kb = fresh();
    const RunOut on = run_config(sys, true, [&] { kb->run(); });
    auto kp = fresh();
    const RunOut off = run_config(sys, false, [&] { kp->run(); });
    EXPECT_EQ(on.rebased, off.rebased)
        << "bulk on/off records diverge, sys=" << int(sys);
    EXPECT_EQ(on.distinct, off.distinct);
    // The route split must be total: runs counted with the knob on, none
    // with it off, and the interval totals must cover at least the runs.
    EXPECT_GT(on.stats.bulk_runs, 0u) << "sys=" << int(sys);
    EXPECT_GE(on.stats.bulk_run_intervals, on.stats.bulk_runs);
    EXPECT_EQ(off.stats.bulk_runs, 0u);
  }
}

TEST_P(KernelBulkApply, PipelinedAndShardedAgreeOnTheVerdict) {
  kernels::KernelConfig cfg;
  cfg.scale = 0.1;
  cfg.seeded_race = true;
  for (Sys sys : {Sys::kPint1, Sys::kShard3}) {
    auto fresh = [&] {
      auto k = kernels::make_kernel(GetParam(), cfg);
      k->prepare();
      return k;
    };
    auto kb = fresh();
    const RunOut on = run_config(sys, true, [&] { kb->run(); });
    auto kp = fresh();
    const RunOut off = run_config(sys, false, [&] { kp->run(); });
    EXPECT_EQ(on.distinct, off.distinct) << "sys=" << int(sys);
    if (on.dropped == 0 && off.dropped == 0) {
      EXPECT_EQ(on.pairs, off.pairs) << "sys=" << int(sys);
    }
  }
}

TEST_P(KernelBulkApply, RaceFreeKernelStaysRaceFreeUnderBulk) {
  kernels::KernelConfig cfg;
  cfg.scale = 0.1;
  auto k = kernels::make_kernel(GetParam(), cfg);
  k->prepare();
  const RunOut out = run_config(Sys::kShard3, true, [&] { k->run(); });
  EXPECT_EQ(out.distinct, 0u) << "bulk apply introduced a false race";
  EXPECT_TRUE(k->verify());
}

INSTANTIATE_TEST_SUITE_P(All, KernelBulkApply,
                         ::testing::ValuesIn(kernels::kernel_names()),
                         [](const auto& info) { return info.param; });

// Random series-parallel programs: denser spawn/sync structure and irregular
// interval lists (single-interval and empty records mixed with long runs).
TEST(RandomProgramBulkApply, BulkOnOffAgreeAndMatchTheOracle) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    test::ProgramConfig pc;
    auto prog = test::ProgramGen(seed, pc).generate();
    std::vector<unsigned char> pool(test::program_pool_bytes(pc), 0);
    unsigned char* base = pool.data();
    const test::PNode* p = prog.get();
    const auto body = [p, base] { test::exec_node(*p, base); };

    // Same pool every run: records compare at absolute addresses, so the
    // rebase is the identity and the comparison is fully bit-exact.
    const RunOut on = run_config(Sys::kStint, true, body);
    const RunOut off = run_config(Sys::kStint, false, body);
    EXPECT_EQ(on.rebased, off.rebased) << "seed=" << seed;
    EXPECT_EQ(on.distinct, off.distinct) << "seed=" << seed;
    // Coalescing off leaves raw (non-canonical) buffers: the run API must
    // gate itself off and still agree with the per-record path.
    const RunOut raw_on = run_config(Sys::kStint, true, body, false);
    const RunOut raw_off = run_config(Sys::kStint, false, body, false);
    EXPECT_EQ(raw_on.rebased, raw_off.rebased) << "seed=" << seed;
    EXPECT_EQ(on.distinct > 0,
              test::oracle_any_race(*p, test::program_pool_bytes(pc)))
        << "seed=" << seed;
  }
}

TEST(BulkKnob, DefaultsOnAndGuardsRestore) {
  EXPECT_TRUE(detect::bulk_apply());  // paper-faithful default
  {
    BulkGuard g;
    detect::set_bulk_apply(false);
    EXPECT_FALSE(detect::bulk_apply());
  }
  EXPECT_TRUE(detect::bulk_apply());
}

}  // namespace
