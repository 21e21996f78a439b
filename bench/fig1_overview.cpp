// Reproduces Figure 1: running times of the seven benchmarks.
//
// Left half:  single-core times of baseline, STINT, PINT (one-core phased
//             mode), and C-RACER, with race-detection overhead factors in
//             brackets (system / baseline).
// Right half: multi-worker times of baseline, PINT (N core workers + 2
//             history workers), and C-RACER (N workers), with scalability vs
//             the system's own single-core run in parentheses.
//
// Expected shape (paper §IV-A): PINT's overhead is close to STINT's and far
// below C-RACER's everywhere except fft, where tiny strided accesses erase
// the interval advantage and C-RACER is competitive or better.

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

  bench::print_environment_note("Figure 1: running time overview");
  std::printf("# scale=%.3g, parallel runs use %d workers (+2 history workers for PINT)\n\n",
              scale, par_workers);

  std::printf("%-6s | %10s %18s %18s %18s | %12s %16s %16s\n", "bench",
              "base1(s)", "STINT [ovh]", "PINT1 [ovh]", "C-RACER1 [ovh]",
              "baseN(s)", "PINT-N (scal)", "C-RACER-N (scal)");
  std::printf("-------+-----------------------------------------------------"
              "--------------+------------------------------------------------\n");

  for (const auto& name : kernels) {
    RunSpec s;
    s.kernel = name;
    s.scale = scale;
    s.reps = args.reps;
    s.workers = 1;
    s.trace_out = args.trace_out;
    s.stats_json = args.stats_json;

    s.system = System::kBaseline;
    const auto base1 = bench::run_spec(s);
    s.system = System::kStint;
    const auto stint = bench::run_spec(s);
    s.system = System::kPintSeq;
    const auto pint1 = bench::run_spec(s);
    s.system = System::kCracer;
    const auto cracer1 = bench::run_spec(s);

    s.workers = par_workers;
    s.system = System::kBaseline;
    const auto basen = bench::run_spec(s);
    s.system = System::kPint;
    const auto pintn = bench::run_spec(s);
    s.system = System::kCracer;
    const auto cracern = bench::run_spec(s);

    std::printf(
        "%-6s | %10.3f %10.3f [%5.2fx] %10.3f [%5.2fx] %10.3f [%6.2fx] | "
        "%12.3f %9.3f (%4.2fx) %9.3f (%4.2fx)\n",
        name.c_str(), base1.seconds, stint.seconds,
        stint.seconds / base1.seconds, pint1.seconds,
        pint1.seconds / base1.seconds, cracer1.seconds,
        cracer1.seconds / base1.seconds, basen.seconds, pintn.seconds,
        pint1.seconds / pintn.seconds, cracern.seconds,
        cracer1.seconds / cracern.seconds);
  }
  std::printf(
      "\n# [ovh] = time / baseline-1-worker time; (scal) = own 1-worker time /"
      " N-worker time.\n");
  return 0;
}
