// Heavier integration tests: benchmark kernels at a moderate scale under
// the full detector matrix, the sharded-history extension end-to-end, and
// stress configurations (tiny stacks, tiny queues, many workers).

#include <gtest/gtest.h>

#include <string>

#include "common.hpp"
#include "kernels/kernels.hpp"

using namespace pint;
using test::Det;

namespace {
constexpr double kScale = 0.5;
}

class KernelModerate : public ::testing::TestWithParam<std::string> {};

TEST_P(KernelModerate, PintParallelMatchesOracleVerdict) {
  // Race-free kernels at a size where every recursion level is exercised.
  kernels::KernelConfig cfg;
  cfg.scale = kScale;
  auto k = kernels::make_kernel(GetParam(), cfg);
  k->prepare();
  auto r = test::run_under(Det::kPint4, [&] { k->run(); });
  EXPECT_FALSE(r.any_race);
  EXPECT_TRUE(k->verify());
}

TEST_P(KernelModerate, ShardedHistoryEndToEnd) {
  kernels::KernelConfig cfg;
  cfg.scale = kScale;
  {
    auto k = kernels::make_kernel(GetParam(), cfg);
    k->prepare();
    pintd::PintDetector::Options o;
    o.core_workers = 2;
    o.history_shards = 4;
    pintd::PintDetector d(o);
    d.run([&] { k->run(); });
    EXPECT_FALSE(d.reporter().any());
    EXPECT_TRUE(k->verify());
  }
  {
    kernels::KernelConfig rc = cfg;
    rc.scale = 0.12;
    rc.seeded_race = true;
    auto k = kernels::make_kernel(GetParam(), rc);
    k->prepare();
    pintd::PintDetector::Options o;
    o.core_workers = 2;
    o.history_shards = 4;
    pintd::PintDetector d(o);
    d.run([&] { k->run(); });
    EXPECT_TRUE(d.reporter().any()) << "sharded history missed a seeded race";
  }
}

INSTANTIATE_TEST_SUITE_P(All, KernelModerate,
                         ::testing::ValuesIn(kernels::kernel_names()),
                         [](const auto& info) { return info.param; });

TEST(StressConfig, SmallStacksStillWork) {
  // 64 KiB task stacks: deep call chains inside tasks must still fit, and
  // stack-range clearing must handle the smaller ranges.
  pintd::PintDetector::Options o;
  o.core_workers = 2;
  o.stack_bytes = 64 * 1024;
  pintd::PintDetector d(o);
  kernels::KernelConfig cfg;
  cfg.scale = 0.12;
  auto k = kernels::make_kernel("sort", cfg);
  k->prepare();
  d.run([&] { k->run(); });
  EXPECT_FALSE(d.reporter().any());
  EXPECT_TRUE(k->verify());
}

TEST(StressConfig, ManyCoreWorkersOversubscribed) {
  // 8 workers on 1 CPU: heavy preemption => many steals and migrations.
  pintd::PintDetector::Options o;
  o.core_workers = 8;
  pintd::PintDetector d(o);
  kernels::KernelConfig cfg;
  cfg.scale = 0.25;
  auto k = kernels::make_kernel("heat", cfg);
  k->prepare();
  d.run([&] { k->run(); });
  EXPECT_FALSE(d.reporter().any());
  EXPECT_TRUE(k->verify());
}

TEST(StressConfig, BackToBackDetectorRuns) {
  // Detector instances are single-use; many instances in sequence must not
  // leak or interfere (fresh engines, treaps, schedulers each time).
  for (int i = 0; i < 6; ++i) {
    kernels::KernelConfig cfg;
    cfg.scale = 0.12;
    cfg.seeded_race = (i % 2 == 1);
    auto k = kernels::make_kernel("mmul", cfg);
    k->prepare();
    pintd::PintDetector::Options o;
    o.core_workers = 1 + i % 3;
    pintd::PintDetector d(o);
    d.run([&] { k->run(); });
    EXPECT_EQ(d.reporter().any(), cfg.seeded_race) << "iteration " << i;
  }
}

TEST(StressConfig, CoalescingOffEndToEnd) {
  // Per-access intervals all the way through the pipeline.
  kernels::KernelConfig cfg;
  cfg.scale = 0.12;
  auto k = kernels::make_kernel("fft", cfg);
  k->prepare();
  pintd::PintDetector::Options o;
  o.core_workers = 2;
  o.coalesce = false;
  pintd::PintDetector d(o);
  d.run([&] { k->run(); });
  EXPECT_FALSE(d.reporter().any());
  EXPECT_TRUE(k->verify());
  const auto s = d.stats().snapshot();
  // No coalescing: one history interval per recorded access.
  EXPECT_EQ(s.read_intervals + s.write_intervals, s.raw_reads + s.raw_writes);
}

TEST(StressConfig, PhasedHistoryWithParallelCore) {
  // parallel_history=false buffers ALL traces while the core component runs
  // on several workers, then drains them in phases - the untuned corner of
  // the configuration matrix.
  pintd::PintDetector::Options o;
  o.core_workers = 4;
  o.parallel_history = false;
  pintd::PintDetector d(o);
  kernels::KernelConfig cfg;
  cfg.scale = 0.25;
  auto k = kernels::make_kernel("mmul", cfg);
  k->prepare();
  d.run([&] { k->run(); });
  EXPECT_FALSE(d.reporter().any());
  EXPECT_TRUE(k->verify());
}
