// Reproduces Figure 2: PINT's parallelization overhead and work breakdown.
//
// Left half:  parallelization overhead = PINT one-core time / STINT time,
//             and the one-core work breakdown across PINT's components
//             (core, writer store, and the one two-sided reader store that
//             replaces the paper's right-most and left-most reader treaps)
//             measured with the phased one-core mode.
// Right half: parallel execution - time until the core component finished
//             vs total time including the asynchronous history drain.
//
// Expected shape: overhead around 1.0-1.5x; treap work small relative to
// core work except fft; core time ~= total time (history overlaps) except
// fft, where the treap component dominates.

#include <cstdio>

#include "bench/harness.hpp"
#include "kernels/kernels.hpp"

using namespace pint;
using bench::RunSpec;
using bench::System;

int main(int argc, char** argv) {
  bench::Args args = bench::parse_args(argc, argv);
  const double scale = args.scale > 0 ? args.scale : 8.0;
  const int par_workers = args.workers > 0 ? args.workers : 4;
  const auto& kernels =
      args.kernels.empty() ? kernels::kernel_names() : args.kernels;

  bench::print_environment_note(
      "Figure 2: parallelization overhead and work breakdown of PINT");
  std::printf("# scale=%.3g; parallel column uses %d core workers + 2 "
              "history workers\n\n",
              scale, par_workers);

  std::printf("%-6s | %9s | %9s %9s %9s | %9s %9s\n", "bench", "par.ovh",
              "core(s)", "writer(s)", "reader(s)", "parcore(s)", "partotal(s)");
  std::printf("-------+-----------+--------------------------------"
              "+---------------------\n");

  for (const auto& name : kernels) {
    RunSpec s;
    s.kernel = name;
    s.scale = scale;
    s.reps = args.reps;
    s.workers = 1;
    s.trace_out = args.trace_out;
    s.stats_json = args.stats_json;

    s.system = System::kStint;
    const auto stint = bench::run_spec(s);
    s.system = System::kPintSeq;
    const auto p1 = bench::run_spec(s);

    s.system = System::kPint;
    s.workers = par_workers;
    const auto pn = bench::run_spec(s);

    // lreader_ns is the reader lane (PintDetector::run).
    std::printf("%-6s | %8.2fx | %9.3f %9.3f %9.3f | %9.3f %9.3f\n",
                name.c_str(), p1.seconds / stint.seconds,
                double(p1.stats.core_ns) * 1e-9,
                double(p1.stats.writer_ns) * 1e-9,
                double(p1.stats.lreader_ns) * 1e-9,
                double(pn.stats.core_ns) * 1e-9,
                double(pn.stats.total_ns) * 1e-9);
  }
  std::printf(
      "\n# par.ovh = PINT-1-core / STINT (paper: 1.03x-1.41x).\n"
      "# core/writer/reader: one-core phased work breakdown (one two-sided\n"
      "# reader store in place of the paper's rreader and lreader treaps).\n"
      "# parcore vs partotal: little gap => asynchronous history keeps up.\n");
  return 0;
}
