#pragma once

// Shared test helpers: run a closure under any of the detectors through one
// interface, generate random series-parallel programs for the
// oracle-comparison property tests, and grow random fork-join DAGs on the
// reachability engine next to their ground truth.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cracer/cracer_detector.hpp"
#include "detect/instrument.hpp"
#include "oracle/oracle_detector.hpp"
#include "pint/pint_detector.hpp"
#include "reach/depa.hpp"
#include "runtime/scheduler.hpp"
#include "stint/stint_detector.hpp"
#include "support/rng.hpp"

namespace pint::test {

enum class Det {
  kStint,
  kPintSeq,   // one-core phased PINT
  kPintSeq4,  // phased PINT, 4 core workers (several traces)
  kPint1,     // PINT, 1 core worker + 2 history workers
  kPint2,
  kPint4,
  kPintShard3,  // SVI extension: 3 address-sharded history workers
  kCracer1,
  kCracer4,
};

inline const char* det_name(Det d) {
  switch (d) {
    case Det::kStint: return "stint";
    case Det::kPintSeq: return "pint_seq";
    case Det::kPintSeq4: return "pint_seq_w4";
    case Det::kPint1: return "pint_w1";
    case Det::kPint2: return "pint_w2";
    case Det::kPint4: return "pint_w4";
    case Det::kPintShard3: return "pint_shard3";
    case Det::kCracer1: return "cracer_w1";
    case Det::kCracer4: return "cracer_w4";
  }
  return "?";
}

inline const std::vector<Det>& all_detectors() {
  static const std::vector<Det> v = {
      Det::kStint, Det::kPintSeq,    Det::kPintSeq4, Det::kPint1,  Det::kPint2,
      Det::kPint4, Det::kPintShard3, Det::kCracer1,  Det::kCracer4};
  return v;
}

struct DetRun {
  bool any_race = false;
  std::uint64_t distinct = 0;
  detect::Stats::Snapshot stats{};
};

/// Runs body() under the given detector configuration.
inline DetRun run_under(Det d, const std::function<void()>& body,
                        std::uint64_t seed = 7) {
  DetRun out;
  switch (d) {
    case Det::kStint: {
      stint::StintDetector::Options o;
      o.seed = seed;
      stint::StintDetector det(o);
      det.run(body);
      out.any_race = det.reporter().any();
      out.distinct = det.reporter().distinct_races();
      out.stats = det.stats().snapshot();
      break;
    }
    case Det::kPintSeq:
    case Det::kPintSeq4:
    case Det::kPint1:
    case Det::kPint2:
    case Det::kPint4:
    case Det::kPintShard3: {
      pintd::PintDetector::Options o;
      o.seed = seed;
      o.parallel_history = d != Det::kPintSeq && d != Det::kPintSeq4;
      o.core_workers = d == Det::kPint2 || d == Det::kPintShard3   ? 2
                       : d == Det::kPint4 || d == Det::kPintSeq4 ? 4
                                                                 : 1;
      if (d == Det::kPintShard3) o.history_shards = 3;
      pintd::PintDetector det(o);
      det.run(body);
      out.any_race = det.reporter().any();
      out.distinct = det.reporter().distinct_races();
      out.stats = det.stats().snapshot();
      break;
    }
    case Det::kCracer1:
    case Det::kCracer4: {
      cracer::CracerDetector::Options o;
      o.seed = seed;
      o.workers = d == Det::kCracer4 ? 4 : 1;
      cracer::CracerDetector det(o);
      det.run(body);
      out.any_race = det.reporter().any();
      out.distinct = det.reporter().distinct_races();
      out.stats = det.stats().snapshot();
      break;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Random series-parallel program generator
// ---------------------------------------------------------------------------

struct Action {
  std::uint32_t offset;
  std::uint16_t len;
  bool write;
  /// Locks held around the access: bit i = program_lock(i).  0 = unguarded.
  std::uint8_t locks = 0;
};

struct PNode {
  std::vector<Action> pre;   // before any spawn
  std::vector<Action> mid;   // between spawns (continuation strands)
  std::vector<Action> post;  // after the sync
  std::vector<std::unique_ptr<PNode>> children;
};

struct ProgramConfig {
  int max_depth = 4;
  int max_children = 3;
  int max_actions = 4;
  std::uint32_t pool_bytes = 256;  // small pool => overlaps are likely
  bool race_free = false;          // partition the pool per node instead
  /// Lock-bearing programs: with locks = N in 1..8, three actions in four run
  /// inside a critical section over a random non-empty subset of N locks,
  /// so one strand mixes unguarded, single-lock and nested (multi-lock)
  /// locksets.  Their accesses are 8-byte aligned, the granule detectors'
  /// resolution, so that a program the byte-exact oracle calls race-free
  /// is race-free at every detector's resolution.  0 draws nothing extra
  /// from the RNG, so lock-free programs stay exactly what they were.
  int locks = 0;
};

/// The address of lock i of a generated program (its identity for the lock
/// hooks; the programs only record accesses, so nothing is really locked).
inline const void* program_lock(int i) {
  static std::uint64_t locks[8];
  return &locks[i];
}

class ProgramGen {
 public:
  ProgramGen(std::uint64_t seed, const ProgramConfig& cfg)
      : rng_(seed), cfg_(cfg) {}

  std::unique_ptr<PNode> generate() { return gen_node(0); }

 private:
  std::unique_ptr<PNode> gen_node(int depth) {
    auto n = std::make_unique<PNode>();
    gen_actions(n->pre);
    if (depth < cfg_.max_depth && rng_.next_below(100) < 70) {
      const int k = 1 + int(rng_.next_below(std::uint64_t(cfg_.max_children)));
      for (int i = 0; i < k; ++i) {
        n->children.push_back(gen_node(depth + 1));
        gen_actions(n->mid);
      }
    }
    gen_actions(n->post);
    return n;
  }

  void gen_actions(std::vector<Action>& out) {
    const int k = int(rng_.next_below(std::uint64_t(cfg_.max_actions) + 1));
    for (int i = 0; i < k; ++i) {
      std::uint32_t off;
      std::uint16_t len = std::uint16_t(1 + rng_.next_below(16));
      if (cfg_.race_free) {
        // Each node draws from its own 64-byte slab, assigned on first use.
        if (slab_ == 0) slab_ = next_slab_ += 64;
        off = std::uint32_t(slab_ - 64 + rng_.next_below(48));
        len = std::uint16_t(1 + rng_.next_below(16));
      } else {
        off = std::uint32_t(rng_.next_below(cfg_.pool_bytes - 16));
      }
      if (cfg_.locks > 0) {
        off &= ~std::uint32_t(7);
        len = std::uint16_t((len + 7) & ~7);
      }
      Action a{off, len, rng_.next_below(2) == 0};
      if (cfg_.locks > 0 && rng_.next_below(100) < 75) {
        a.locks = std::uint8_t(
            1 + rng_.next_below((std::uint64_t(1) << cfg_.locks) - 1));
      }
      out.push_back(a);
    }
    slab_ = 0;  // a fresh slab per strand segment in race-free mode
  }

  Xoshiro256 rng_;
  ProgramConfig cfg_;
  std::uint32_t slab_ = 0;
  std::uint32_t next_slab_ = 0;
};

/// Total bytes a race-free program might touch (slabs are handed out
/// monotonically; bound generously).
inline std::size_t program_pool_bytes(const ProgramConfig& cfg) {
  return cfg.race_free ? std::size_t(1) << 20 : cfg.pool_bytes;
}

/// One action: its critical section (locks taken in ascending order, so
/// multi-lock sections nest) around the recorded access.
inline void exec_action(const Action& a, unsigned char* base) {
  for (int i = 0; i < 8; ++i) {
    if ((a.locks >> i) & 1) lock_acquire(program_lock(i));
  }
  if (a.write) {
    record_write(base + a.offset, a.len);
  } else {
    record_read(base + a.offset, a.len);
  }
  for (int i = 7; i >= 0; --i) {
    if ((a.locks >> i) & 1) lock_release(program_lock(i));
  }
}

inline void exec_node(const PNode& n, unsigned char* base) {
  auto do_actions = [&](const std::vector<Action>& as) {
    for (const Action& a : as) exec_action(a, base);
  };
  do_actions(n.pre);
  if (!n.children.empty()) {
    rt::SpawnScope sc;
    std::size_t mid_idx = 0;
    const std::size_t mid_per_child =
        n.children.empty() ? 0 : n.mid.size() / n.children.size();
    for (const auto& c : n.children) {
      const PNode* cp = c.get();
      sc.spawn([cp, base] { exec_node(*cp, base); });
      // A slice of mid actions lands on this continuation strand.
      for (std::size_t k = 0; k < mid_per_child && mid_idx < n.mid.size();
           ++k, ++mid_idx) {
        exec_action(n.mid[mid_idx], base);
      }
    }
    sc.sync();
  }
  do_actions(n.post);
}

/// Ground truth for a generated program.
inline bool oracle_any_race(const PNode& prog, std::size_t pool_bytes) {
  std::vector<unsigned char> pool(pool_bytes, 0);
  oracle::OracleDetector d;
  unsigned char* base = pool.data();
  const PNode* p = &prog;
  d.run([p, base] { exec_node(*p, base); });
  return d.any_race();
}

// ---------------------------------------------------------------------------
// Random fork-join DAG on the reachability engine, with ground truth
// ---------------------------------------------------------------------------

/// Grows a random fork-join computation on a reach::Engine and records two
/// engine-independent ground truths for every strand it labels:
///
///  * the DAG's edges (spawn -> child, spawn -> continuation, block tails ->
///    sync node), which closure() turns into the reachability matrix;
///  * its position in the serial child-first execution.  Strands are numbered
///    in exactly that order - a child when the recursion enters it, a
///    continuation after the child returns, a sync node after its block - so
///    a strand's index IS its serial position.
///
/// Blocks hold 1-3 spawns, occasionally 6 (so sibling fans and deep tails
/// both occur).
struct SpDagBuilder {
  reach::Engine e;
  std::vector<reach::Engine::Label> labels;
  std::vector<std::pair<int, int>> edges;

  explicit SpDagBuilder(std::uint64_t seed) : rng_(seed) {}

  /// The root strand plus a random body nesting at most max_depth levels.
  void build(int max_depth) {
    run_function(add(e.root_label()), 0, max_depth);
  }

  /// Floyd-Warshall transitive closure: closure()[i][j] <=> i ~> j.
  std::vector<std::vector<char>> closure() const {
    const std::size_t n = labels.size();
    std::vector<std::vector<char>> c(n, std::vector<char>(n, 0));
    for (auto [u, v] : edges) c[std::size_t(u)][std::size_t(v)] = 1;
    for (std::size_t k = 0; k < n; ++k) {
      for (std::size_t i = 0; i < n; ++i) {
        if (!c[i][k]) continue;
        for (std::size_t j = 0; j < n; ++j) {
          if (c[k][j]) c[i][j] = 1;
        }
      }
    }
    return c;
  }

 private:
  int add(const reach::Engine::Label& l) {
    labels.push_back(l);
    return int(labels.size()) - 1;
  }

  /// Executes a function whose current strand is `cur`; returns the index
  /// of its final strand.
  int run_function(int cur, int depth, int max_depth) {
    const int blocks = 1 + int(rng_.next_below(2));
    for (int b = 0; b < blocks; ++b) {
      const bool force = depth == 0 && b == 0;  // at least one spawn overall
      if (!force && (depth >= max_depth || rng_.next_below(100) < 30)) continue;
      const int nspawn =
          rng_.next_below(100) < 10 ? 6 : 1 + int(rng_.next_below(3));
      reach::Engine::Label sync;
      std::vector<int> tails;
      for (int s = 0; s < nspawn; ++s) {
        const auto sl = e.on_spawn(labels[std::size_t(cur)], &sync);
        const int child = add(sl.child);
        edges.push_back({cur, child});
        tails.push_back(run_function(child, depth + 1, max_depth));
        const int cont = add(sl.cont);
        edges.push_back({cur, cont});
        cur = cont;
      }
      const int j = add(sync);
      edges.push_back({cur, j});
      for (int t : tails) edges.push_back({t, j});
      cur = j;
    }
    return cur;
  }

  Xoshiro256 rng_;
};

}  // namespace pint::test
