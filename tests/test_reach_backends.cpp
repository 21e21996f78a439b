// Certification of the happens-before engine (DESIGN.md §14; ctest label
// `reachmatrix`).
//
// Three layers, from the engine surface out to whole detector runs:
//
//  1. ENGINE tests - spawn/sync relations, paths long enough to freeze
//     chunks, and equal-label lockset splits.
//
//  2. ORACLE fuzz - random fork-join DAGs whose every ordered label pair
//     must get exactly the Relation two engine-independent ground truths
//     dictate: the transitive closure decides series pairs, the serial
//     child-first execution order decides both bits of parallel pairs.
//
//  3. DETECTOR matrix - the full kernel x detector x history-mode sweep and
//     the random-program / lock-twin suites, with canonical race-report
//     digests.  With PINT_REACH_DIGEST set, every digested configuration
//     appends one line to that file; diffing the files of two builds proves
//     their race reports identical.  Every digested configuration is
//     deterministic (one core worker; history modes only change who
//     processes the work, never strand identity).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "common.hpp"
#include "detect/report.hpp"
#include "kernels/kernels.hpp"
#include "reach/depa.hpp"

using namespace pint;
using test::Det;
using test::det_name;

// ---------------------------------------------------------------------------
// 1. Engine-surface tests.
// ---------------------------------------------------------------------------

TEST(DePaEngine, SpawnRelations) {
  reach::Engine e;
  using L = reach::Engine::Label;
  L u = e.root_label();
  L sync;
  const auto s = e.on_spawn(u, &sync);
  EXPECT_TRUE(e.precedes(u, s.child));
  EXPECT_TRUE(e.precedes(u, s.cont));
  EXPECT_TRUE(e.parallel(s.child, s.cont));
  EXPECT_TRUE(e.left_of(s.child, s.cont));
  EXPECT_TRUE(e.precedes(s.child, sync));
  EXPECT_TRUE(e.precedes(s.cont, sync));
  EXPECT_FALSE(e.precedes(sync, s.child));
}

TEST(DePaEngine, EqualLabelsOrderedByNeither) {
  // The lock-segmentation contract: a lock event splits a strand into
  // segments with THE SAME label and a fresh sid; such segments must be
  // ordered by neither relation bit, so they can never race with each
  // other and never perturb reader retention.
  reach::Engine e;
  using L = reach::Engine::Label;
  L u = e.root_label();
  L sync;
  const auto s = e.on_spawn(u, &sync);
  const L copy = s.child;  // the split segment carries a byte-identical label
  const auto r = e.relation(s.child, copy);
  EXPECT_FALSE(r.eng);
  EXPECT_FALSE(r.heb);
  EXPECT_FALSE(e.parallel(s.child, copy));
  EXPECT_FALSE(e.precedes(s.child, copy));
}

TEST(DePaEngine, DeepChainCrossesWordBoundaries) {
  // 200 spawns deep: DePa paths reach ~400 bits (7 words), exercising the
  // chunk freeze/shared-suffix machinery several times over.  Every prefix
  // strand must precede every deeper one, and each child stays parallel to
  // every later continuation's child.
  reach::Engine e;
  using L = reach::Engine::Label;
  std::vector<L> chain;   // continuation spine
  std::vector<L> kids;    // one child per level
  std::vector<L> syncs;
  chain.push_back(e.root_label());
  for (int i = 0; i < 200; ++i) {
    syncs.emplace_back();
    const auto s = e.on_spawn(chain.back(), &syncs.back());
    kids.push_back(s.child);
    chain.push_back(s.cont);
  }
  for (std::size_t i = 0; i < chain.size(); i += 37) {
    for (std::size_t j = i + 1; j < chain.size(); j += 23) {
      EXPECT_TRUE(e.precedes(chain[i], chain[j])) << i << "," << j;
      EXPECT_FALSE(e.precedes(chain[j], chain[i])) << i << "," << j;
    }
  }
  // None of the per-level sync nodes is joined back into the spine, so every
  // child is parallel to (and English-left of) everything spawned after it.
  for (std::size_t i = 0; i < kids.size(); i += 29) {
    for (std::size_t j = i + 1; j < kids.size(); j += 31) {
      EXPECT_TRUE(e.parallel(kids[i], kids[j])) << i << "," << j;
      EXPECT_TRUE(e.left_of(kids[i], kids[j])) << i << "," << j;
      EXPECT_TRUE(e.parallel(kids[i], chain[j])) << i << "," << j;
    }
    EXPECT_TRUE(e.precedes(kids[i], syncs[i])) << i;
    EXPECT_TRUE(e.precedes(chain[i + 1], syncs[i])) << i;
  }
}

TEST(DePaEngine, WideFanSharesOneBlock) {
  // 100 spawns in ONE sync block: all children pairwise parallel, in
  // spawn order under left_of, all preceding the single sync node.
  reach::Engine e;
  using L = reach::Engine::Label;
  L cur = e.root_label();
  L sync;
  std::vector<L> kids;
  for (int i = 0; i < 100; ++i) {
    const auto s = e.on_spawn(cur, &sync);
    kids.push_back(s.child);
    cur = s.cont;
  }
  for (std::size_t i = 0; i < kids.size(); i += 13) {
    for (std::size_t j = i + 1; j < kids.size(); j += 17) {
      EXPECT_TRUE(e.parallel(kids[i], kids[j])) << i << "," << j;
      EXPECT_TRUE(e.left_of(kids[i], kids[j])) << i << "," << j;
      EXPECT_FALSE(e.left_of(kids[j], kids[i])) << i << "," << j;
    }
    EXPECT_TRUE(e.precedes(kids[i], sync));
    EXPECT_FALSE(e.precedes(sync, kids[i]));
  }
  EXPECT_TRUE(e.precedes(cur, sync));
}

TEST(DePaEngine, ChunkArenaFreezesLongPaths) {
  reach::DePaEngine e;
  EXPECT_EQ(e.chunks_minted(), 0u);
  auto cur = e.root_label();
  for (int i = 0; i < 40; ++i) {  // 40 symbols = 80 bits > one word
    reach::DePaEngine::Label sync;
    cur = e.on_spawn(cur, &sync).cont;
  }
  EXPECT_GT(e.chunks_minted(), 0u);
  EXPECT_GT(cur.bits, 64u);
  // The frozen prefix plus tail must reproduce order against a shallow label.
  const auto root = e.root_label();
  EXPECT_TRUE(e.precedes(root, cur));
  EXPECT_FALSE(e.precedes(cur, root));
}

// ---------------------------------------------------------------------------
// 2. Oracle fuzz: every ordered pair against closure + serial order.
// ---------------------------------------------------------------------------

// Both Relation bits, checked against ground truth the engine never sees
// (test::SpDagBuilder): a pair in series is {1, 1} one way and {0, 0} the
// other; a parallel pair (or a strand against itself) is decided by the
// serial child-first order alone - English-first iff it runs first serially,
// Hebrew-first iff it runs last.  The English bit is what reader retention's
// left/right tiebreak consumes, so a precedes()-only oracle would miss a
// flipped tiebreak entirely.
TEST(ReachOracle, RelationMatchesClosureAndSerialOrder) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    test::SpDagBuilder b(seed);
    b.build(seed % 3 == 0 ? 5 : 4);
    const std::size_t n = b.labels.size();
    ASSERT_GE(n, 2u);
    ASSERT_LT(n, 4000u) << "generator config drifted; closure would crawl";
    const auto closure = b.closure();
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        reach::Relation want{i < j, i > j};
        if (closure[i][j]) want = {true, true};
        if (closure[j][i]) want = {false, false};
        const reach::Relation got = b.e.relation(b.labels[i], b.labels[j]);
        ASSERT_EQ(got.eng, want.eng)
            << "seed=" << seed << " i=" << i << " j=" << j;
        ASSERT_EQ(got.heb, want.heb)
            << "seed=" << seed << " i=" << i << " j=" << j;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// 3. Detector matrix, with canonical digests.
// ---------------------------------------------------------------------------

namespace {

/// Digest sink: when PINT_REACH_DIGEST names a file, every deterministic
/// configuration appends one canonical line; two builds' files diff clean
/// iff their race reports agree.
struct Digest {
  static FILE* file() {
    static FILE* f = [] {
      const char* path = std::getenv("PINT_REACH_DIGEST");
      return path != nullptr ? std::fopen(path, "w") : nullptr;
    }();
    return f;
  }

  static void line(const std::string& config, std::uint64_t distinct,
                   std::vector<detect::RaceRecord> records) {
    FILE* f = file();
    if (f == nullptr) return;
    // A record's identity is (sids, kinds) - the reporter dedups on exactly
    // that.  The lo/hi range is NOT digested: it is an absolute address
    // (ASLR-scrambled across binaries) and records whichever of the pair's
    // racing accesses reported first (arrival order under pipelined
    // history), so it is environmental, not semantic.
    std::sort(records.begin(), records.end(),
              [](const detect::RaceRecord& a, const detect::RaceRecord& b) {
                return std::tie(a.prev_sid, a.cur_sid, a.prev_write,
                                a.cur_write) <
                       std::tie(b.prev_sid, b.cur_sid, b.prev_write,
                                b.cur_write);
              });
    std::fprintf(f, "%s distinct=%llu", config.c_str(),
                 (unsigned long long)distinct);
    for (const auto& r : records) {
      std::fprintf(f, " %llu%c:%llu%c",
                   (unsigned long long)r.prev_sid, r.prev_write ? 'W' : 'R',
                   (unsigned long long)r.cur_sid, r.cur_write ? 'W' : 'R');
    }
    std::fprintf(f, "\n");
    std::fflush(f);
  }
};

struct MatrixRun {
  bool any_race = false;
  std::uint64_t distinct = 0;
  std::uint64_t dropped = 0;
  std::vector<detect::RaceRecord> records;
};

// Deterministic detector configurations: exactly one core worker, so strand
// identity (sids) is schedule-independent and race-report sets are
// reproducible across builds.  The history modes - STINT inline, PINT
// phased, PINT pipelined, PINT sharded, C-RACER, oracle - only move WHERE
// conflict checks run, never which strands exist.
enum class Mode { kStint, kPhased, kPipelined, kSharded, kCracer, kOracle };

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kStint: return "stint";
    case Mode::kPhased: return "pint_phased";
    case Mode::kPipelined: return "pint_pipelined";
    case Mode::kSharded: return "pint_sharded";
    case Mode::kCracer: return "cracer";
    case Mode::kOracle: return "oracle";
  }
  return "?";
}

const std::vector<Mode>& all_modes() {
  static const std::vector<Mode> v = {Mode::kStint,   Mode::kPhased,
                                      Mode::kPipelined, Mode::kSharded,
                                      Mode::kCracer,  Mode::kOracle};
  return v;
}

MatrixRun run_mode(Mode m, const std::function<void()>& body) {
  MatrixRun out;
  switch (m) {
    case Mode::kStint: {
      stint::StintDetector det(stint::StintDetector::Options{});
      det.run(body);
      out = {det.reporter().any(), det.reporter().distinct_races(),
             det.reporter().dropped_records(), det.reporter().records()};
      break;
    }
    case Mode::kPhased:
    case Mode::kPipelined:
    case Mode::kSharded: {
      pintd::PintDetector::Options o;
      o.core_workers = 1;
      o.parallel_history = m != Mode::kPhased;
      if (m == Mode::kSharded) o.history_shards = 3;
      pintd::PintDetector det(o);
      det.run(body);
      out = {det.reporter().any(), det.reporter().distinct_races(),
             det.reporter().dropped_records(), det.reporter().records()};
      break;
    }
    case Mode::kCracer: {
      cracer::CracerDetector::Options o;
      o.workers = 1;
      cracer::CracerDetector det(o);
      det.run(body);
      out = {det.reporter().any(), det.reporter().distinct_races(),
             det.reporter().dropped_records(), det.reporter().records()};
      break;
    }
    case Mode::kOracle: {
      oracle::OracleDetector det;
      det.run(body);
      out.any_race = det.any_race();
      out.distinct = det.any_race() ? 1 : 0;
      break;
    }
  }
  return out;
}

}  // namespace

// All 7 kernels x every detector/history mode: race-free inputs must report
// ZERO races (false positives are what a broken relation would produce
// first), verify() must hold, and each cell lands in the digest.
class ReachMatrixKernels
    : public ::testing::TestWithParam<std::tuple<std::string, Mode>> {};

TEST_P(ReachMatrixKernels, RaceFreeKernelStaysSilent) {
  const auto& [kernel, mode] = GetParam();
  kernels::KernelConfig cfg;
  cfg.scale = 0.12;
  auto k = kernels::make_kernel(kernel, cfg);
  k->prepare();
  const MatrixRun r = run_mode(mode, [&] { k->run(); });
  EXPECT_TRUE(k->verify()) << kernel << " under " << mode_name(mode);
  EXPECT_FALSE(r.any_race)
      << kernel << " false race under " << mode_name(mode);
  EXPECT_EQ(r.distinct, 0u);
  Digest::line(std::string("kernel/") + kernel + "/" + mode_name(mode),
               r.distinct, r.records);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernelsAllModes, ReachMatrixKernels,
    ::testing::Combine(::testing::ValuesIn(kernels::kernel_names()),
                       ::testing::ValuesIn(all_modes())),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" +
             mode_name(std::get<1>(info.param));
    });

// Seeded-race kernel variants: every mode must catch the race, and the
// deterministic report set goes into the digest.
class ReachMatrixSeeded : public ::testing::TestWithParam<Mode> {};

TEST_P(ReachMatrixSeeded, SeededRacesCaughtAndDigested) {
  const Mode mode = GetParam();
  for (const char* kernel : {"mmul", "heat", "sort"}) {
    kernels::KernelConfig cfg;
    cfg.scale = 0.12;
    cfg.seeded_race = true;
    auto k = kernels::make_kernel(kernel, cfg);
    k->prepare();
    const MatrixRun r = run_mode(mode, [&] { k->run(); });
    EXPECT_TRUE(r.any_race) << kernel << " seeded race missed under "
                            << mode_name(mode);
    // Seeded kernels race on hundreds of distinct pairs - past the 256-record
    // cap the record LIST depends on arrival order (history workers), so only
    // the exact distinct-pair count is digested once records were dropped.
    Digest::line(std::string("seeded/") + kernel + "/" + mode_name(mode),
                 r.distinct,
                 r.dropped == 0 ? r.records : std::vector<detect::RaceRecord>{});
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, ReachMatrixSeeded,
                         ::testing::ValuesIn(all_modes()),
                         [](const auto& info) { return mode_name(info.param); });

// Random-program property fuzz: every detector must agree with the oracle
// on ANY-race for every generated program, in every history mode; racy
// programs' deterministic report sets join the digest.
TEST(ReachMatrixFuzz, RandomProgramsMatchOracle) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    for (const bool race_free : {true, false}) {
      test::ProgramConfig cfg;
      cfg.race_free = race_free;
      test::ProgramGen gen(seed, cfg);
      auto prog = gen.generate();
      const std::size_t pool = test::program_pool_bytes(cfg);
      const bool oracle_race = test::oracle_any_race(*prog, pool);
      if (race_free) {
        EXPECT_FALSE(oracle_race) << "seed=" << seed;
      }
      for (const Mode mode : all_modes()) {
        if (mode == Mode::kOracle) continue;
        std::vector<unsigned char> mem(pool, 0);
        unsigned char* base = mem.data();
        const test::PNode* p = prog.get();
        const MatrixRun r =
            run_mode(mode, [p, base] { test::exec_node(*p, base); });
        EXPECT_EQ(r.any_race, oracle_race)
            << "seed=" << seed << " race_free=" << race_free << " mode="
            << mode_name(mode);
        char tag[64];
        std::snprintf(tag, sizeof tag, "fuzz/seed%llu/%s/%s",
                      (unsigned long long)seed, race_free ? "clean" : "racy",
                      mode_name(mode));
        if (r.dropped == 0) Digest::line(tag, r.distinct, r.records);
      }
    }
  }
}

// Lock-kernel twins (test_locks.cpp's matrix) re-run in every history mode:
// mutex-guarded twins stay silent - equal-label segment splits must remain
// inert under immutable DePa labels - and unguarded twins keep racing.
TEST(ReachMatrixLocks, LockTwinsAgree) {
  for (const char* kernel : {"lktwin", "lkcache"}) {
    for (const bool seeded : {false, true}) {
      for (const Mode mode : all_modes()) {
        if (mode == Mode::kOracle) continue;  // oracle has no lock filter
        kernels::KernelConfig cfg;
        cfg.scale = 0.3;
        cfg.seeded_race = seeded;
        auto k = kernels::make_kernel(kernel, cfg);
        k->prepare();
        const MatrixRun r = run_mode(mode, [&] { k->run(); });
        EXPECT_EQ(r.any_race, seeded)
            << kernel << " seeded=" << seeded << " under " << mode_name(mode);
        if (r.dropped == 0) {
          Digest::line(std::string("locks/") + kernel +
                           (seeded ? "/unguarded/" : "/guarded/") +
                           mode_name(mode),
                       r.distinct, r.records);
        }
      }
    }
  }
}
