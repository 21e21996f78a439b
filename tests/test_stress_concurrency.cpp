// Concurrency stress tests, written to be run under the sanitizer lanes
// (-DPINT_SAN=thread / address, see scripts/ci.sh) as well as plain builds.
// They hammer exactly the cross-thread protocols DESIGN.md's
// "Memory-ordering contracts" section documents: AhQueue publish/reclaim
// with slot wrap-around, strand pool recycling, OM seqlock queries racing
// structural mutations, and the full PINT pipeline under a tiny queue.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "common.hpp"
#include "detect/strand.hpp"
#include "kernels/kernels.hpp"
#include "om/order_maintenance.hpp"
#include "pint/ah_queue.hpp"
#include "pint/sharded_history.hpp"

using namespace pint;

// ---------------------------------------------------------------------------
// AhQueue: one producer, three consumers, heavy wrap-around + reclaim
// ---------------------------------------------------------------------------

namespace {

// The queue stores Strand*; for the stress test only sid (sequence number)
// and the consumers counter matter.
struct StrandPool {
  std::vector<std::unique_ptr<detect::Strand>> owned;
  std::vector<detect::Strand*> free_list;
  explicit StrandPool(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      owned.push_back(std::make_unique<detect::Strand>());
      free_list.push_back(owned.back().get());
    }
  }
};

}  // namespace

TEST(AhQueueStress, ProducerAndThreeConsumersWrapAround) {
  constexpr std::uint64_t kPushes = 5000;
  constexpr int kConsumers = 3;
  constexpr std::size_t kCapacity = 8;  // tiny ring => constant wrap-around

  pintd::AhQueue q(kCapacity);
  StrandPool pool(2 * kCapacity);

  std::atomic<bool> fail{false};
  std::uint64_t next_reclaimed_sid = 0;  // producer-local: reclaim order check

  std::thread producer([&] {
    std::uint64_t sid = 0;
    while (sid < kPushes) {
      detect::Strand* s = nullptr;
      while (s == nullptr) {
        if (!pool.free_list.empty()) {
          s = pool.free_list.back();
          pool.free_list.pop_back();
          break;
        }
        q.reclaim([&](detect::Strand* d) {
          // Reclaim must hand strands back in push (FIFO) order.
          if (d->sid != next_reclaimed_sid) fail.store(true);
          ++next_reclaimed_sid;
          pool.free_list.push_back(d);
        });
        if (pool.free_list.empty()) std::this_thread::yield();
      }
      s->sid = sid;
      s->consumers.store(kConsumers, std::memory_order_release);
      while (!q.try_push(s)) {
        q.reclaim([&](detect::Strand* d) {
          if (d->sid != next_reclaimed_sid) fail.store(true);
          ++next_reclaimed_sid;
          pool.free_list.push_back(d);
        });
        std::this_thread::yield();
      }
      ++sid;
    }
    // Drain the in-flight tail (reclaim is producer-only, so the final
    // drain must happen on this thread, not after join on the main thread).
    while (q.reclaimed() < kPushes) {
      q.reclaim([&](detect::Strand* d) {
        if (d->sid != next_reclaimed_sid) fail.store(true);
        ++next_reclaimed_sid;
      });
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&q, &fail] {
      q.register_consumer();
      std::uint64_t cursor = 0;
      while (cursor < kPushes) {
        const std::uint64_t h = q.head();
        if (cursor == h) {
          std::this_thread::yield();
          continue;
        }
        while (cursor < h) {
          detect::Strand* s = q.at(cursor);
          // Publication contract: every slot < head() holds the strand with
          // exactly its cursor's sequence number.
          if (s->sid != cursor) fail.store(true);
          s->consumers.fetch_sub(1, std::memory_order_acq_rel);
          ++cursor;
        }
      }
      q.unregister_consumer();
    });
  }

  producer.join();
  for (auto& t : consumers) t.join();

  EXPECT_FALSE(fail.load());
  EXPECT_EQ(q.reclaimed(), kPushes);
  EXPECT_EQ(next_reclaimed_sid, kPushes);
  EXPECT_EQ(q.active_consumers(), 0);
}

// Deterministic reclaim-ordering semantics: reclamation is strictly FIFO -
// a finished strand behind an unfinished one stays unreclaimed.
TEST(AhQueueStress, ReclaimIsFifoEvenWhenLaterSlotsFinishFirst) {
  pintd::AhQueue q(4);
  StrandPool pool(4);
  detect::Strand* s[4];
  for (int i = 0; i < 4; ++i) {
    s[i] = pool.owned[std::size_t(i)].get();
    s[i]->sid = std::uint64_t(i);
    s[i]->consumers.store(1, std::memory_order_release);
    ASSERT_TRUE(q.try_push(s[i]));
  }
  detect::Strand extra;
  EXPECT_FALSE(q.try_push(&extra));  // ring full

  // Finish slots 1..3 but NOT 0: nothing is reclaimable yet.
  for (int i = 1; i < 4; ++i) {
    s[i]->consumers.fetch_sub(1, std::memory_order_acq_rel);
  }
  std::vector<std::uint64_t> order;
  q.reclaim([&](detect::Strand* d) { order.push_back(d->sid); });
  EXPECT_TRUE(order.empty());
  EXPECT_EQ(q.reclaimed(), 0u);

  // Finishing slot 0 unblocks all four, in push order.
  s[0]->consumers.fetch_sub(1, std::memory_order_acq_rel);
  q.reclaim([&](detect::Strand* d) { order.push_back(d->sid); });
  EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 1, 2, 3}));
  EXPECT_EQ(q.reclaimed(), 4u);

  // The freed capacity is usable again (wrap-around indices).
  for (int i = 0; i < 4; ++i) {
    s[i]->sid = std::uint64_t(4 + i);
    s[i]->consumers.store(0, std::memory_order_release);
    ASSERT_TRUE(q.try_push(s[i]));
  }
  EXPECT_EQ(q.at(4)->sid, 4u);
  EXPECT_EQ(q.at(7)->sid, 7u);
}

TEST(AhQueueDeathTest, GrowWithLiveConsumerIsRejected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        pintd::AhQueue q(4);
        q.register_consumer();
        q.grow_unsynchronized();
      },
      "live consumer");
}

#ifndef NDEBUG
// Debug-only: producer-side calls are pinned to the first caller's thread.
TEST(AhQueueDeathTest, SecondProducerThreadIsRejected) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        pintd::AhQueue q(4);
        detect::Strand s;
        std::thread t([&] { (void)q.try_push(&s); });
        t.join();
        (void)q.try_push(&s);  // second producer thread: contract violation
      },
      "single-producer");
}
#endif

// ---------------------------------------------------------------------------
// OM list: lock-free precedes() queries racing structural mutations
// ---------------------------------------------------------------------------

TEST(OmStress, QueriesRaceSplitsAndRelabels) {
  om::List list;

  // A known chain: items[i] precedes items[j] iff i < j.  Later concurrent
  // inserts land *between* existing items and cannot disturb this order.
  constexpr std::size_t kChain = 200;
  std::vector<om::Item*> items;
  items.reserve(kChain);
  om::Item* x = list.base();
  for (std::size_t i = 0; i < kChain; ++i) {
    x = list.insert_after(x);
    items.push_back(x);
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> fail{false};

  // Two inserters keep splitting groups / relabelling the top level by
  // always inserting at the same hot spots.
  std::vector<std::thread> inserters;
  for (int t = 0; t < 2; ++t) {
    inserters.emplace_back([&list, &items, t] {
      Xoshiro256 rng(std::uint64_t(91 + t));
      for (int i = 0; i < 2000; ++i) {
        om::Item* at = items[rng.next_below(items.size())];
        om::Item* fresh = list.insert_after(at);
        // Chain a few more after the fresh item to stress subtag gaps.
        list.insert_after(fresh);
      }
    });
  }

  std::vector<std::thread> queriers;
  for (int t = 0; t < 2; ++t) {
    queriers.emplace_back([&list, &items, &stop, &fail, t] {
      Xoshiro256 rng(std::uint64_t(17 + t));
      std::uint64_t q = 0;
      while (!stop.load(std::memory_order_acquire) || q < 2000) {
        const std::size_t i = rng.next_below(kChain);
        const std::size_t j = rng.next_below(kChain);
        if (i == j) continue;
        const bool got = list.precedes(items[i], items[j]);
        if (got != (i < j)) fail.store(true);
        ++q;
      }
    });
  }

  for (auto& t : inserters) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : queriers) t.join();

  EXPECT_FALSE(fail.load());
  EXPECT_TRUE(list.check_invariants());
  EXPECT_EQ(list.size(), 1 + kChain + 2 * 2000 * 2);
  EXPECT_GT(list.structural_mutations(), 0u);
}

// ---------------------------------------------------------------------------
// for_shard_pieces: boundary regression near the top of the address space
// ---------------------------------------------------------------------------

namespace {

// Collects the pieces of [lo, hi] over ALL shards and verifies they tile the
// interval exactly (complete, disjoint, in order, no overflow wrap).
void check_piece_tiling(detect::addr_t lo, detect::addr_t hi, int nshards) {
  struct Piece {
    detect::addr_t lo, hi;
  };
  std::vector<Piece> pieces;
  for (int shard = 0; shard < nshards; ++shard) {
    pintd::for_shard_pieces(lo, hi, shard, nshards,
                            [&](detect::addr_t plo, detect::addr_t phi) {
                              pieces.push_back({plo, phi});
                              // Piece lies in one stripe owned by `shard`.
                              EXPECT_LE(plo, phi);
                              EXPECT_EQ(plo / pintd::kShardStripeBytes,
                                        phi / pintd::kShardStripeBytes);
                              EXPECT_EQ(int((plo / pintd::kShardStripeBytes) %
                                            std::uint64_t(nshards)),
                                        shard);
                            });
  }
  std::sort(pieces.begin(), pieces.end(),
            [](const Piece& a, const Piece& b) { return a.lo < b.lo; });
  ASSERT_FALSE(pieces.empty());
  EXPECT_EQ(pieces.front().lo, lo);
  EXPECT_EQ(pieces.back().hi, hi);
  for (std::size_t k = 1; k < pieces.size(); ++k) {
    EXPECT_EQ(pieces[k].lo, pieces[k - 1].hi + 1);
  }
}

}  // namespace

TEST(ShardPieces, TilesSmallIntervals) {
  for (int nshards = 1; nshards <= 4; ++nshards) {
    check_piece_tiling(0, 0, nshards);
    check_piece_tiling(0, pintd::kShardStripeBytes - 1, nshards);
    check_piece_tiling(5, 5 * pintd::kShardStripeBytes + 123, nshards);
    check_piece_tiling(pintd::kShardStripeBytes - 1, pintd::kShardStripeBytes,
                       nshards);
  }
}

TEST(ShardPieces, TilesIntervalsTouchingAddrMax) {
  constexpr detect::addr_t kMax = std::numeric_limits<detect::addr_t>::max();
  for (int nshards = 1; nshards <= 4; ++nshards) {
    // Entirely inside the very last stripe (the old `slo + stripe - 1`
    // arithmetic and `stripe <= last` loop bound are most fragile here).
    check_piece_tiling(kMax, kMax, nshards);
    check_piece_tiling(kMax - 10, kMax, nshards);
    // Crossing into the last stripe.
    check_piece_tiling(kMax - pintd::kShardStripeBytes - 5, kMax, nshards);
    check_piece_tiling(kMax - 3 * pintd::kShardStripeBytes, kMax - 1, nshards);
  }
}

// ---------------------------------------------------------------------------
// Full PINT pipeline under a tiny queue (constant reclaim pressure)
// ---------------------------------------------------------------------------

namespace {

test::DetRun run_pint_tiny_queue(const std::function<void()>& body,
                                 std::uint64_t seed, int core_workers,
                                 int history_shards) {
  pintd::PintDetector::Options o;
  o.seed = seed;
  o.core_workers = core_workers;
  o.parallel_history = true;
  o.history_shards = history_shards;
  o.queue_capacity = 8;  // tiny: every few strands wrap the ring
  pintd::PintDetector det(o);
  det.run(body);
  return {det.reporter().any(), det.reporter().distinct_races()};
}

}  // namespace

TEST(PintStress, TinyQueueManyCoresMatchesOracle) {
  for (std::uint64_t seed : {11u, 23u, 57u}) {
    test::ProgramConfig cfg;
    cfg.max_depth = 5;
    cfg.max_children = 3;
    auto prog = test::ProgramGen(seed, cfg).generate();
    const bool expect = test::oracle_any_race(*prog, cfg.pool_bytes);

    std::vector<unsigned char> pool(cfg.pool_bytes, 0);
    unsigned char* base = pool.data();
    const test::PNode* p = prog.get();
    const auto r =
        run_pint_tiny_queue([p, base] { test::exec_node(*p, base); }, seed,
                            /*core_workers=*/4, /*history_shards=*/0);
    EXPECT_EQ(r.any_race, expect) << "seed=" << seed;
  }
}

TEST(PintStress, TinyQueueRaceFreeStaysSilent) {
  for (std::uint64_t seed : {5u, 29u}) {
    test::ProgramConfig cfg;
    cfg.max_depth = 5;
    cfg.race_free = true;
    auto prog = test::ProgramGen(seed, cfg).generate();

    std::vector<unsigned char> pool(test::program_pool_bytes(cfg), 0);
    unsigned char* base = pool.data();
    const test::PNode* p = prog.get();
    const auto r =
        run_pint_tiny_queue([p, base] { test::exec_node(*p, base); }, seed,
                            /*core_workers=*/4, /*history_shards=*/0);
    EXPECT_FALSE(r.any_race) << "seed=" << seed;
  }
}

TEST(PintStress, TinyQueueShardedHistoryMatchesOracle) {
  for (std::uint64_t seed : {13u, 41u}) {
    test::ProgramConfig cfg;
    cfg.max_depth = 4;
    auto prog = test::ProgramGen(seed, cfg).generate();
    const bool expect = test::oracle_any_race(*prog, cfg.pool_bytes);

    std::vector<unsigned char> pool(cfg.pool_bytes, 0);
    unsigned char* base = pool.data();
    const test::PNode* p = prog.get();
    const auto r =
        run_pint_tiny_queue([p, base] { test::exec_node(*p, base); }, seed,
                            /*core_workers=*/2, /*history_shards=*/3);
    EXPECT_EQ(r.any_race, expect) << "seed=" << seed;
  }
}

TEST(PintStress, SeededRaceKernelCaughtUnderTwoWorkers) {
  kernels::KernelConfig kc;
  kc.scale = 0.08;
  kc.seeded_race = true;
  auto k = kernels::make_kernel("mmul", kc);
  k->prepare();

  pintd::PintDetector::Options o;
  o.seed = 3;
  o.core_workers = 2;
  o.parallel_history = true;
  o.queue_capacity = 8;
  pintd::PintDetector det(o);
  det.run([&] { k->run(); });
  EXPECT_TRUE(det.reporter().any()) << "missed the seeded race";
}

// ---------------------------------------------------------------------------
// Stats: clear()/snapshot() are only meaningful at quiescence
// ---------------------------------------------------------------------------

TEST(StatsContract, SnapshotAndClearAtQuiescence) {
  pintd::PintDetector::Options o;
  o.seed = 9;
  o.core_workers = 2;
  o.parallel_history = true;
  pintd::PintDetector det(o);
  std::vector<unsigned char> pool(256, 0);
  unsigned char* base = pool.data();
  det.run([base] {
    rt::SpawnScope sc;
    sc.spawn([base] { record_write(base, 16); });
    record_write(base + 64, 16);
    sc.sync();
  });

  // run() joined every worker and history thread: the snapshot is coherent.
  const auto snap = const_cast<detect::Stats&>(det.stats()).snapshot();
  EXPECT_GT(snap.raw_writes, 0u);
  EXPECT_GT(snap.strands, 0u);
  EXPECT_GT(snap.total_ns, 0u);

  // clear() at quiescence resets every field; a fresh snapshot shows zeros.
  const_cast<detect::Stats&>(det.stats()).clear();
  const auto zero = det.stats().snapshot();
  EXPECT_EQ(zero.raw_reads, 0u);
  EXPECT_EQ(zero.raw_writes, 0u);
  EXPECT_EQ(zero.strands, 0u);
  EXPECT_EQ(zero.traces, 0u);
  EXPECT_EQ(zero.total_ns, 0u);
}

// Every counter of the PINT_STATS_COUNTERS table reaches snapshot() under
// its own name (distinct values catch crossed wiring), clear() zeroes all of
// them, and Snapshot holds nothing the table does not declare.
TEST(StatsContract, EveryTableCounterSnapshotsAndClears) {
#define PINT_STATS_ONE(name) +1
  constexpr std::size_t kCounters = 0 PINT_STATS_COUNTERS(PINT_STATS_ONE);
#undef PINT_STATS_ONE
  static_assert(sizeof(detect::Stats::Snapshot) ==
                kCounters * sizeof(std::uint64_t));
  detect::Stats st;
  std::uint64_t v = 0;
#define PINT_STATS_SET(name) st.name.store(++v);
  PINT_STATS_COUNTERS(PINT_STATS_SET)
#undef PINT_STATS_SET
  const detect::Stats::Snapshot snap = st.snapshot();
  v = 0;
#define PINT_STATS_CHECK(name) EXPECT_EQ(snap.name, ++v) << #name;
  PINT_STATS_COUNTERS(PINT_STATS_CHECK)
#undef PINT_STATS_CHECK
  st.clear();
  const detect::Stats::Snapshot zero = st.snapshot();
#define PINT_STATS_ZERO(name) EXPECT_EQ(zero.name, 0u) << #name;
  PINT_STATS_COUNTERS(PINT_STATS_ZERO)
#undef PINT_STATS_ZERO
}
