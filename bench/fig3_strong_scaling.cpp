// Reproduces Figure 3: strong scaling of PINT.
//
// Fixed input, varying number of core workers (plus the two history
// workers). For each cell we print total time, and when the history drain
// dominates (total noticeably above core), the core-component time in
// parentheses - exactly the annotation style of the paper's table.
//
// NOTE: on a single-CPU host added workers cannot reduce wall time; the
// harness still exercises the real multi-worker code paths (steals, traces,
// asynchronous history workers), and the meaningful signals are (a) the
// core-vs-total gap and (b) how little total time GROWS as workers are
// added - oversubscription magnifies any shared-structure stall, so a flat
// row here is the single-core shadow of real strong scaling.
//
// --json FILE emits the sweep plus a per-kernel "efficiency_at_max"
// (total at 1 worker / (max_workers * total at max workers)); the committed
// BENCH_fig3.json snapshot of that file is what scripts/perfgate.py's
// scaling key gates against (efficiency at max workers must not regress
// >10%).

#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.hpp"

using namespace pint;
using bench::RunSpec;
using bench::System;

namespace {

struct Row {
  int workers = 0;
  double total_s = 0;
  double core_s = 0;
};

struct KernelSweep {
  std::string name;
  std::vector<Row> rows;
  double efficiency_at_max = 0;
};

bool write_json(const std::string& path, double scale, int max_workers,
                const std::vector<KernelSweep>& sweeps) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"bench\": \"fig3_strong_scaling\",\n");
  std::fprintf(f, "  \"scale\": %g,\n", scale);
  std::fprintf(f, "  \"max_workers\": %d,\n", max_workers);
  std::fprintf(f, "  \"kernels\": [\n");
  for (std::size_t k = 0; k < sweeps.size(); ++k) {
    const KernelSweep& s = sweeps[k];
    std::fprintf(f, "    {\"name\": \"%s\", \"rows\": [", s.name.c_str());
    for (std::size_t i = 0; i < s.rows.size(); ++i) {
      std::fprintf(f,
                   "%s\n      {\"workers\": %d, \"total_s\": %.6f, "
                   "\"core_s\": %.6f}",
                   i ? "," : "", s.rows[i].workers, s.rows[i].total_s,
                   s.rows[i].core_s);
    }
    std::fprintf(f, "\n    ], \"efficiency_at_max\": %.4f}%s\n",
                 s.efficiency_at_max, k + 1 < sweeps.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args = bench::parse_args(argc, argv);
  const double scale = args.scale > 0 ? args.scale : 8.0;
  const std::vector<std::string> kernels =
      args.kernels.empty()
          ? std::vector<std::string>{"heat", "mmul", "sort", "stra"}
          : args.kernels;
  const std::vector<int> worker_counts =
      args.workers > 0 ? std::vector<int>{args.workers}
                       : std::vector<int>{1, 2, 4, 8};

  bench::print_environment_note("Figure 3: strong scaling of PINT");
  std::printf("# scale=%.3g; cells: total seconds, (core seconds) when the "
              "treap component dominates\n\n", scale);

  std::printf("%-6s |", "bench");
  for (int w : worker_counts) std::printf(" %13s%-2d", "core workers=", w);
  std::printf("\n");

  std::vector<KernelSweep> sweeps;
  for (const auto& name : kernels) {
    KernelSweep sweep;
    sweep.name = name;
    std::printf("%-6s |", name.c_str());
    for (int w : worker_counts) {
      RunSpec s;
      s.kernel = name;
      s.scale = scale;
      s.reps = args.reps;
      s.workers = w;
      s.system = System::kPint;
      s.trace_out = args.trace_out;
      s.stats_json = args.stats_json;
      const auto r = bench::run_spec(s);
      const double total = double(r.stats.total_ns) * 1e-9;
      const double core = double(r.stats.core_ns) * 1e-9;
      sweep.rows.push_back({w, total, core});
      if (total > core * 1.10) {
        std::printf(" %7.3f(%5.3f)", total, core);
      } else {
        std::printf(" %7.3f%8s", total, "");
      }
    }
    // Strong-scaling efficiency at the widest sweep point: T1 / (W * TW).
    // 1.0 = ideal speedup; on a 1-CPU host the ceiling is 1/W and the
    // number measures pure oversubscription overhead (how much total time
    // inflated on the way to W workers).
    const Row& first = sweep.rows.front();
    const Row& last = sweep.rows.back();
    if (last.workers > first.workers && last.total_s > 0) {
      sweep.efficiency_at_max =
          first.total_s / (double(last.workers) * last.total_s);
    }
    sweeps.push_back(sweep);
    std::printf("\n");
  }

  if (!args.json.empty()) {
    const int max_w = worker_counts.back();
    if (!write_json(args.json, scale, max_w, sweeps)) {
      std::fprintf(stderr, "error: could not write %s\n", args.json.c_str());
      return 1;
    }
    std::printf("\n# wrote %s\n", args.json.c_str());
  }
  return 0;
}
