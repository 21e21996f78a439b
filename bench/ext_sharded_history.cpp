// Extension experiment (paper §VI): sharded history workers.
//
// The paper's scaling limit is the busiest sequential treap worker - for
// fft (and mmul/sort at large inputs) the history component dominates.
// This harness compares the 2 role-workers (writer, two-sided reader)
// against N address-sharded history workers and reports the BUSIEST history
// worker's processing time: on real parallel hardware that number is the
// history component's critical path, so driving it down with shard count is
// exactly the relief the paper's conclusion asks for.  (On this 1-CPU container
// wall-clock totals cannot improve; the critical-path column is the
// meaningful one.)

#include <algorithm>
#include <cstdio>

#include "bench/harness.hpp"
#include "kernels/kernels.hpp"

using namespace pint;
using bench::RunSpec;
using bench::System;

namespace {

struct Row {
  double total_s;
  double busiest_history_s;
  double history_work_s;
};

Row run(const bench::Args& args, const std::string& kernel, double scale,
        int shards) {
  RunSpec spec;
  spec.kernel = kernel;
  spec.scale = scale;
  spec.system = System::kPint;
  spec.workers = 2;
  spec.history_shards = shards;
  spec.reps = args.reps;
  spec.trace_out = args.trace_out;
  spec.stats_json = args.stats_json;
  const auto s = bench::run_spec(spec).stats;
  Row r;
  r.total_s = double(s.total_ns) * 1e-9;
  if (shards == 0) {
    // lreader_ns is the one reader lane.
    r.busiest_history_s = double(std::max(s.writer_ns, s.lreader_ns)) * 1e-9;
    r.history_work_s = double(s.writer_ns + s.lreader_ns) * 1e-9;
  } else {
    r.busiest_history_s = double(s.lreader_ns) * 1e-9;  // max shard
    r.history_work_s = double(s.rreader_ns) * 1e-9;     // sum of shards
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args = bench::parse_args(argc, argv);
  const double scale = args.scale > 0 ? args.scale : 8.0;
  const std::vector<std::string> kernels =
      args.kernels.empty() ? std::vector<std::string>{"fft", "mmul", "sort"}
                           : args.kernels;

  bench::print_environment_note(
      "Extension (paper SVI): address-sharded history workers");
  std::printf("# scale=%.3g, 2 core workers; critical path = busiest history "
              "worker's busy time\n\n", scale);
  std::printf("%-6s %-14s | %10s %14s %14s\n", "bench", "config", "total(s)",
              "crit.path(s)", "total work(s)");
  std::printf("----------------------+------------------------------------------\n");

  for (const auto& name : kernels) {
    const Row base = run(args, name, scale, 0);
    std::printf("%-6s %-14s | %10.3f %14.3f %14.3f\n", name.c_str(),
                "2 role-workers", base.total_s, base.busiest_history_s,
                base.history_work_s);
    for (int shards : {2, 4, 8}) {
      const Row r = run(args, name, scale, shards);
      std::printf("%-6s %2d %-11s | %10.3f %14.3f %14.3f\n", "", shards,
                  "shards", r.total_s, r.busiest_history_s, r.history_work_s);
    }
    std::printf("\n");
  }
  std::printf("# crit.path should drop roughly linearly with shard count; if\n"
              "# it does, the paper's treap bottleneck is removed on real\n"
              "# multi-core hardware.\n");
  return 0;
}
