// Ablation: interval treap vs per-granule hashmap as the access-history
// store, everything else (pipeline, coalescing, reachability) identical.
//
// This isolates the paper's central data-structure claim from its pipeline
// contribution: STINT rows compare the stores synchronously; PINT rows
// compare them under the asynchronous three-worker pipeline.  Expected
// shape: the treap wins big wherever coalescing produces large single-touch
// intervals (heat, sort: one treap op replaces interval_bytes/8 hashmap
// ops); the gap shrinks to ~1-2x where intervals are tiny (fft) or where
// the same granules are re-touched so the map hits hot slots (mmul).

#include <cstdio>

#include "bench/harness.hpp"
#include "kernels/kernels.hpp"

using namespace pint;
using bench::RunSpec;
using bench::System;

namespace {

double run_one(const bench::Args& args, const std::string& kernel,
               double scale, System system, detect::HistoryKind kind,
               int workers) {
  RunSpec s;
  s.kernel = kernel;
  s.scale = scale;
  s.system = system;
  s.history = kind;
  s.workers = workers;
  s.reps = args.reps;
  s.trace_out = args.trace_out;
  s.stats_json = args.stats_json;
  return bench::run_spec(s).seconds;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args = bench::parse_args(argc, argv);
  const double scale = args.scale > 0 ? args.scale : 4.0;
  const int workers = args.workers > 0 ? args.workers : 4;
  const auto& kernels =
      args.kernels.empty() ? kernels::kernel_names() : args.kernels;

  bench::print_environment_note(
      "Ablation: access-history store (interval treap vs per-granule hashmap)");
  std::printf("# scale=%.3g; PINT rows use %d core workers + 2 history workers\n\n",
              scale, workers);
  std::printf("%-6s | %12s %12s %9s | %12s %12s %9s\n", "bench",
              "STINT-treap", "STINT-hash", "hash/treap", "PINT-treap",
              "PINT-hash", "hash/treap");
  std::printf("-------+---------------------------------------+--------------------------------------\n");

  for (const auto& name : kernels) {
    const double st =
        run_one(args, name, scale, System::kStint, detect::HistoryKind::kTreap, 1);
    const double sh = run_one(args, name, scale, System::kStint,
                              detect::HistoryKind::kGranuleMap, 1);
    const double pt = run_one(args, name, scale, System::kPint,
                              detect::HistoryKind::kTreap, workers);
    const double ph = run_one(args, name, scale, System::kPint,
                              detect::HistoryKind::kGranuleMap, workers);
    std::printf("%-6s | %11.3fs %11.3fs %8.2fx | %11.3fs %11.3fs %8.2fx\n",
                name.c_str(), st, sh, sh / st, pt, ph, ph / pt);
  }
  std::printf("\n# hash/treap > 1 quantifies the interval treap's advantage "
              "for that kernel.\n");
  return 0;
}
