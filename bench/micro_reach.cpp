// Concurrent spawn/query microbenchmark for the reachability engine
// (DESIGN.md §14).
//
//   ./micro_reach [--json FILE] [--slots N] [--msec M] [--prebuild N]
//
// Times DePa's precedes() while other threads keep spawning: the regime a
// detector's history lanes query in while core workers mint labels.  DePa
// labels are immutable words, so a query never synchronizes with a spawn;
// this bench keeps that property measured.
//
//   * half the threads are BUILDERS: each executes a bounded-depth
//     recursive fork-join schedule (spawn descends into the child, joins
//     return to the block's sync strand - depths stay O(log work), like
//     any real cilk-style program, which also keeps DePa paths a few words
//     long).  Three shapes: `deep` (descend-biased: a near-full recursion
//     stack keeps one migrating hot insertion point per builder), `wide`
//     (256-child fan blocks: one sync node, siblings spawned off the
//     continuation chain), `steal` (deep, but every 64 spawns the builder
//     swaps its current strand with a random peer through a shared board,
//     re-creating work-stealing's migrating insertion points);
//   * the other half are QUERIERS: each draws random pairs from a sliding
//     window over the last 4k published labels and calls precedes() with NO
//     memo - the raw engine is the thing under test (a memo hit would only
//     measure the cache).
//
// Labels are published once into a pre-sized slot array (write the label,
// then release-store the ready flag; queriers acquire-load before reading),
// so the harness itself adds no locks to the measured paths.  Cells are
// TIME-boxed: every cell gets the same wall-clock window with churn live
// for all of it; builders that fill the publication array keep spawning
// unpublished, so the churn never stops.  Throughput numbers are
// queries/sec and spawns/sec over the window; the committed
// BENCH_reach.json is this binary's --json output.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "reach/depa.hpp"
#include "support/rng.hpp"
#include "support/spinlock.hpp"

using namespace pint;

namespace {

constexpr int kWindow = 4096;     // queriers sample the last 4k labels
constexpr int kStealPeriod = 64;  // steal schedule: swap frontiers every N
constexpr int kFanBlock = 256;    // wide schedule: spawns per sync block

enum class Sched { kDeep, kWide, kSteal };

const char* sched_name(Sched s) {
  switch (s) {
    case Sched::kDeep: return "deep";
    case Sched::kWide: return "wide";
    case Sched::kSteal: return "steal";
  }
  return "?";
}

struct CellResult {
  std::string schedule;
  int threads = 0;
  double elapsed_s = 0;
  std::uint64_t spawns = 0;
  std::uint64_t queries = 0;
  double spawns_per_s = 0;
  double queries_per_s = 0;
};

using Label = reach::Engine::Label;

struct Slot {
  Label label;
  std::atomic<std::uint32_t> ready{0};
};

/// One benchmark cell: build + query a fresh engine under one schedule for
/// a fixed wall-clock window.
CellResult run_cell(Sched sched, int threads, std::uint64_t capacity,
                    int msec, std::uint64_t prebuild) {
  const int builders = threads / 2;
  const int queriers = threads - builders;

  reach::Engine eng;
  // Pre-grow the engine to detector scale before the clock starts: a real
  // run holds millions of strand labels (and their frozen path chunks).
  // Single-threaded, deep recursive shape, unpublished - it only exists to
  // mature the chunk arena.
  if (prebuild > 0) {
    Xoshiro256 rng(991);
    std::vector<Label> syncs;
    Label warm_sync;
    auto cur = eng.on_spawn(eng.root_label(), &warm_sync).child;
    for (std::uint64_t spawned = 0; spawned < prebuild;) {
      if (syncs.size() < 48 && (syncs.empty() || rng.next_below(100) < 92)) {
        Label sync;
        const auto s = eng.on_spawn(cur, &sync);
        syncs.push_back(sync);
        cur = s.child;
        ++spawned;
      } else {
        cur = syncs.back();
        syncs.pop_back();
      }
    }
  }
  std::vector<Slot> slots(capacity + std::uint64_t(builders));
  std::atomic<std::uint64_t> reserve{0};
  std::atomic<int> ready_threads{0};
  std::atomic<bool> go{false};

  // Seed each builder with its own child of a root fan, so frontiers start
  // parallel to each other (steal swaps then cross genuinely unrelated
  // subtrees).
  auto frontier = std::vector<Label>(std::size_t(builders));
  {
    auto cur = eng.root_label();
    Label sync;
    for (int b = 0; b < builders; ++b) {
      const auto s = eng.on_spawn(cur, &sync);
      frontier[std::size_t(b)] = s.child;
      cur = s.cont;
    }
  }
  // Steal board: one published frontier per builder, swapped under a lock
  // (off the measured fast path: every kStealPeriod spawns).
  Spinlock board_mu;
  std::vector<Label> board = frontier;

  auto publish = [&](std::uint64_t idx, const Label& l) {
    slots[idx].label = l;
    slots[idx].ready.store(1, std::memory_order_release);
  };

  std::vector<std::uint64_t> queries_done(std::size_t(queriers), 0);
  std::vector<std::uint64_t> spawns_done(std::size_t(builders), 0);
  std::atomic<std::int64_t> deadline_ns{0};  // set by main at the go signal
  auto past_deadline = [&] {
    return std::chrono::steady_clock::now().time_since_epoch().count() >=
           deadline_ns.load(std::memory_order_relaxed);
  };

  std::vector<std::thread> crew;
  crew.reserve(std::size_t(threads));

  // Schedule shape: descend probability (out of 100), sibling fan per
  // block, and max recursion depth.
  const int p_descend = sched == Sched::kWide ? 25 : 92;
  const int fan = sched == Sched::kWide ? kFanBlock : 1;
  const int max_depth = sched == Sched::kWide ? 8 : 48;

  for (int b = 0; b < builders; ++b) {
    crew.emplace_back([&, b] {
      Xoshiro256 rng(std::uint64_t(b) * 77 + 13);
      // Explicit recursion stack: each frame is an open sync block (its
      // continuation strand and sync node); popping a frame joins the block
      // and continues from the sync strand.
      struct Frame {
        Label cont;
        Label sync;
        int fan_left;
      };
      std::vector<Frame> stack;
      stack.reserve(std::size_t(max_depth) + 1);
      auto cur = frontier[std::size_t(b)];
      std::uint64_t spawned = 0;
      int since_swap = 0;
      ready_threads.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      while (true) {
        // Deadline checked every step, so no cell overshoots its window.
        if (past_deadline()) break;
        const bool can_descend = int(stack.size()) < max_depth;
        if (can_descend &&
            (stack.empty() || int(rng.next_below(100)) < p_descend)) {
          // Open a block at the current strand; descend into the child.
          Frame f;
          f.sync = Label{};
          const auto s = eng.on_spawn(cur, &f.sync);
          f.cont = s.cont;
          f.fan_left = fan - 1;
          stack.push_back(f);
          const std::uint64_t idx =
              reserve.fetch_add(1, std::memory_order_relaxed);
          if (idx < capacity) publish(idx, s.child);
          cur = s.child;
          ++spawned;
        } else if (!stack.empty() && stack.back().fan_left > 0) {
          // Widen the innermost block: a sibling off its continuation.
          Frame& f = stack.back();
          const auto s = eng.on_spawn(f.cont, &f.sync);
          f.cont = s.cont;
          --f.fan_left;
          const std::uint64_t idx =
              reserve.fetch_add(1, std::memory_order_relaxed);
          if (idx < capacity) publish(idx, s.child);
          cur = s.child;
          ++spawned;
        } else if (!stack.empty()) {
          // Join: the block's strands complete; continue after its sync.
          cur = stack.back().sync;
          stack.pop_back();
        }
        if (sched == Sched::kSteal && ++since_swap >= kStealPeriod) {
          since_swap = 0;
          const auto other =
              std::size_t(rng.next_below(std::uint64_t(builders)));
          LockGuard<Spinlock> g(board_mu);
          std::swap(cur, board[other]);
        }
      }
      spawns_done[std::size_t(b)] = spawned;
    });
  }

  for (int q = 0; q < queriers; ++q) {
    crew.emplace_back([&, q] {
      Xoshiro256 rng(std::uint64_t(q) * 1931 + 7);
      std::uint64_t done = 0;
      std::uint64_t attempts = 0;
      std::uint64_t sink = 0;
      ready_threads.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      while (true) {
        if ((attempts++ & 63) == 0 && past_deadline()) break;
        const std::uint64_t hi = reserve.load(std::memory_order_relaxed);
        if (hi == 0) continue;
        const std::uint64_t top = hi < capacity ? hi : capacity;
        const std::uint64_t lo = top > kWindow ? top - kWindow : 0;
        const std::uint64_t span = top - lo;
        if (span == 0) continue;
        const std::uint64_t a = lo + rng.next_below(span);
        const std::uint64_t b = lo + rng.next_below(span);
        if (slots[a].ready.load(std::memory_order_acquire) == 0 ||
            slots[b].ready.load(std::memory_order_acquire) == 0) {
          continue;
        }
        sink += eng.precedes(slots[a].label, slots[b].label, nullptr) ? 1 : 0;
        ++done;
      }
      queries_done[std::size_t(q)] = done + (sink & 1);  // keep sink alive
    });
  }

  while (ready_threads.load() < threads) std::this_thread::yield();
  const auto t0 = std::chrono::steady_clock::now();
  deadline_ns.store(
      (t0 + std::chrono::milliseconds(msec)).time_since_epoch().count(),
      std::memory_order_relaxed);
  go.store(true, std::memory_order_release);
  for (auto& t : crew) t.join();
  const auto t1 = std::chrono::steady_clock::now();

  CellResult r;
  r.schedule = sched_name(sched);
  r.threads = threads;
  r.elapsed_s = std::chrono::duration<double>(t1 - t0).count();
  for (std::uint64_t d : spawns_done) r.spawns += d;
  for (std::uint64_t d : queries_done) r.queries += d;
  r.spawns_per_s = double(r.spawns) / r.elapsed_s;
  r.queries_per_s = double(r.queries) / r.elapsed_s;
  return r;
}

bool write_json(const std::string& path, std::uint64_t capacity,
                std::uint64_t prebuild, const std::vector<CellResult>& cells) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"bench\": \"micro_reach\",\n");
  std::fprintf(f, "  \"slot_capacity\": %llu,\n", (unsigned long long)capacity);
  std::fprintf(f, "  \"prebuild_strands\": %llu,\n",
               (unsigned long long)prebuild);
  std::fprintf(f, "  \"cells\": [\n");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    std::fprintf(f,
                 "    {\"engine\": \"depa\", \"schedule\": \"%s\", "
                 "\"threads\": %d, \"elapsed_s\": %.4f, "
                 "\"spawns_per_s\": %.0f, \"queries_per_s\": %.0f}%s\n",
                 c.schedule.c_str(), c.threads, c.elapsed_s, c.spawns_per_s,
                 c.queries_per_s, i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_reach.json";
  std::uint64_t capacity = std::uint64_t(1) << 20;  // published-label slots
  int msec = 1000;                                  // wall window per cell
  std::uint64_t prebuild = std::uint64_t(1) << 21;  // pre-grown strand count
  for (int i = 1; i < argc; ++i) {
    const char* s = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", s);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(s, "--json") == 0) {
      json_path = next();
    } else if (std::strcmp(s, "--slots") == 0) {
      capacity = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(s, "--msec") == 0) {
      msec = int(std::strtol(next(), nullptr, 10));
    } else if (std::strcmp(s, "--prebuild") == 0) {
      prebuild = std::strtoull(next(), nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json FILE] [--slots N] [--msec M] "
                   "[--prebuild N]\n",
                   argv[0]);
      return 2;
    }
  }

  std::printf(
      "# micro_reach: DePa precedes() under concurrent spawns, %d ms/cell, "
      "%llu label slots, %llu pre-grown strands\n",
      msec, (unsigned long long)capacity, (unsigned long long)prebuild);
  std::printf("%-6s %8s %12s %14s %14s\n", "sched", "threads", "elapsed_s",
              "spawns/s", "queries/s");

  std::vector<CellResult> cells;
  for (const int threads : {4, 16}) {
    for (const Sched sched : {Sched::kDeep, Sched::kWide, Sched::kSteal}) {
      const CellResult c = run_cell(sched, threads, capacity, msec, prebuild);
      std::printf("%-6s %8d %12.3f %14.0f %14.0f\n", c.schedule.c_str(),
                  c.threads, c.elapsed_s, c.spawns_per_s, c.queries_per_s);
      cells.push_back(c);
    }
  }

  if (!write_json(json_path, capacity, prebuild, cells)) {
    std::fprintf(stderr, "error: could not write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\n# wrote %s\n", json_path.c_str());
  return 0;
}
