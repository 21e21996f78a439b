// Access hot-path microbenchmark (DESIGN.md §9): ns/access for the
// thread-local AccessCursor fast path vs the classic record_access_slow
// route, cursor and tail-probe hit rates plus cursor spills per kernel,
// and the geo-mean detection overhead over all seven kernels.  The
// perf-smoke and perfgate CI lanes run this and check the emitted JSON
// (see scripts/ci.sh, scripts/perfgate.py).
//
//   ./micro_access [--json FILE] [--accesses N] [--scale S]
//
// Exit status is non-zero when the cursor fast path fails its acceptance
// bar (>= 3x lower ns/access than the slow route), so the lane catches a
// regression that silently falls off the fast path.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "detect/instrument.hpp"
#include "kernels/kernels.hpp"
#include "stint/stint_detector.hpp"
#include "support/timer.hpp"

using namespace pint;

namespace {

struct AccessTiming {
  double ns_per_access = 0.0;
  double hit_rate = 0.0;  // cursor hit rate (0 on the slow route)
};

/// Times a sequential read loop inside one detector strand.  `fast` flips
/// the global cursor knob BEFORE the run, so the same record_read() wrapper
/// dispatches to the cursor (fast) or to record_access_slow (slow): the two
/// timings differ only in the hot path under test.
AccessTiming time_access_loop(bool fast, std::uint64_t accesses) {
  detect::set_access_fast_path(fast);
  stint::StintDetector::Options opt;
  stint::StintDetector det(opt);
  std::vector<unsigned char> buf(1 << 20);
  const std::uint64_t mask = buf.size() - 1;
  double best_s = 1e300;
  det.run([&] {
    for (int rep = 0; rep < 3; ++rep) {
      Timer t;
      for (std::uint64_t i = 0; i < accesses; ++i) {
        record_read(buf.data() + ((i * 8) & mask), 8);
      }
      best_s = std::min(best_s, t.elapsed_s());
    }
  });
  detect::set_access_fast_path(true);
  const auto s = det.stats().snapshot();
  AccessTiming out;
  out.ns_per_access = best_s * 1e9 / double(accesses);
  if (s.fastpath_accesses > 0) {
    out.hit_rate = double(s.fastpath_hits) / double(s.fastpath_accesses);
  }
  return out;
}

struct KernelRow {
  std::string name;
  double base_s = 0.0;
  double pint_s = 0.0;
  double setup_s = 0.0;   // detector construction (outside the steady state)
  double overhead = 0.0;  // pint_s / base_s
  double cursor_hit_rate = 0.0;
  double tail_hit_rate = 0.0;
  std::uint64_t cursor_spills = 0;
};

KernelRow run_kernel(const std::string& name, double scale) {
  bench::RunSpec spec;
  spec.kernel = name;
  spec.scale = scale;
  // Best-of: these kernels are sub-ms at bench scale, so reps are nearly
  // free, and on a shared 1-core host the best-of-3 minimum still carried
  // ~10% geomean jitter between runs - 7 reps converges it to the true min.
  spec.reps = 7;
  KernelRow row;
  row.name = name;
  spec.system = bench::System::kBaseline;
  row.base_s = bench::run_spec(spec).seconds;
  spec.system = bench::System::kPintSeq;
  const bench::BenchResult r = bench::run_spec(spec);
  row.pint_s = r.seconds;
  row.setup_s = r.setup_seconds;
  row.overhead = row.base_s > 0 ? row.pint_s / row.base_s : 0.0;
  if (r.stats.fastpath_accesses > 0) {
    row.cursor_hit_rate =
        double(r.stats.fastpath_hits) / double(r.stats.fastpath_accesses);
  }
  const std::uint64_t tails =
      r.stats.tail_probe_hits + r.stats.tail_probe_misses;
  if (tails > 0) {
    row.tail_hit_rate = double(r.stats.tail_probe_hits) / double(tails);
  }
  row.cursor_spills = r.stats.cursor_spills;
  return row;
}

bool write_json(const std::string& path, const AccessTiming& fast,
                const AccessTiming& slow, double speedup,
                const std::vector<KernelRow>& rows, double geomean,
                double geomean3) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n");
  std::fprintf(f,
               "  \"ns_per_access\": {\"fast\": %.3f, \"slow\": %.3f, "
               "\"speedup\": %.2f},\n",
               fast.ns_per_access, slow.ns_per_access, speedup);
  std::fprintf(f, "  \"cursor_hit_rate\": %.4f,\n", fast.hit_rate);
  std::fprintf(f, "  \"geomean_overhead\": %.3f,\n", geomean);
  // Over {mmul, heat, sort} only - the kernel set older BENCH_access.json
  // snapshots used - so the perf gate compares like with like across the
  // switch to the full seven-kernel sweep.
  std::fprintf(f, "  \"geomean_overhead_3kernel\": %.3f,\n", geomean3);
  std::fprintf(f, "  \"kernels\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const KernelRow& r = rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"base_s\": %.6f, \"pintseq_s\": "
                 "%.6f, \"setup_s\": %.6f, "
                 "\"overhead\": %.2f, \"cursor_hit_rate\": %.4f, "
                 "\"tail_hit_rate\": %.4f, "
                 "\"cursor_spills\": %llu}%s\n",
                 r.name.c_str(), r.base_s, r.pint_s, r.setup_s, r.overhead,
                 r.cursor_hit_rate, r.tail_hit_rate,
                 (unsigned long long)r.cursor_spills,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_access.json";
  std::uint64_t accesses = std::uint64_t(1) << 22;
  double scale = 0.2;
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
    } else if (std::strcmp(s, "--accesses") == 0) {
      accesses = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(s, "--scale") == 0) {
      scale = std::atof(next());
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json FILE] [--accesses N] [--scale S]\n",
                   argv[0]);
      return 2;
    }
  }

  bench::print_environment_note("micro_access: hot-path cost");

  const AccessTiming fast = time_access_loop(true, accesses);
  const AccessTiming slow = time_access_loop(false, accesses);
  const double speedup =
      fast.ns_per_access > 0 ? slow.ns_per_access / fast.ns_per_access : 0.0;
  std::printf("# %llu accesses, best of 3 reps\n",
              (unsigned long long)accesses);
  std::printf("%-28s %10.3f ns/access  (cursor hit rate %.4f)\n",
              "cursor fast path", fast.ns_per_access, fast.hit_rate);
  std::printf("%-28s %10.3f ns/access\n", "record_access_slow route",
              slow.ns_per_access);
  std::printf("%-28s %10.2fx\n", "speedup", speedup);

  // Full seven-kernel sweep (paper table order).  Older snapshots covered
  // only {mmul, heat, sort}; a separate geomean over that subset is kept in
  // the JSON so the perf gate can compare across the switch.
  const std::vector<std::string>& kernel_set = kernels::kernel_names();
  std::vector<KernelRow> rows;
  double log_sum = 0.0, log_sum3 = 0.0;
  std::size_t n3 = 0;
  std::printf("\n# kernels at scale %.2f (baseline vs one-core phased PINT)\n",
              scale);
  std::printf("%-8s %10s %10s %9s %9s %12s %10s %9s\n", "kernel", "base_s",
              "pint_s", "setup_s", "overhead", "cursor_hit", "tail_hit",
              "spills");
  for (const auto& name : kernel_set) {
    rows.push_back(run_kernel(name, scale));
    const KernelRow& r = rows.back();
    log_sum += std::log(r.overhead);
    if (r.name == "mmul" || r.name == "heat" || r.name == "sort") {
      log_sum3 += std::log(r.overhead);
      ++n3;
    }
    std::printf("%-8s %10.4f %10.4f %9.5f %8.2fx %12.4f %10.4f %9llu\n",
                r.name.c_str(), r.base_s, r.pint_s, r.setup_s, r.overhead,
                r.cursor_hit_rate, r.tail_hit_rate,
                (unsigned long long)r.cursor_spills);
  }
  const double geomean = std::exp(log_sum / double(rows.size()));
  const double geomean3 = n3 > 0 ? std::exp(log_sum3 / double(n3)) : 0.0;
  std::printf("%-8s %31.2fx  (3-kernel equivalent %.2fx)\n", "geomean",
              geomean, geomean3);

  if (!write_json(json_path, fast, slow, speedup, rows, geomean, geomean3)) {
    std::fprintf(stderr, "error: could not write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\n# wrote %s\n", json_path.c_str());

  if (speedup < 3.0) {
    std::fprintf(stderr,
                 "FAIL: cursor fast path speedup %.2fx is below the 3x "
                 "acceptance bar\n",
                 speedup);
    return 1;
  }
  // Hit-rate acceptance bar on the measured gap this bench exposed: sort's
  // cursor rate (was 0.00 under the old opens-as-misses accounting).
  for (const KernelRow& r : rows) {
    if (r.name == "sort" && r.cursor_hit_rate <= 0.5) {
      std::fprintf(stderr,
                   "FAIL: sort cursor hit rate %.4f is below the 0.5 bar\n",
                   r.cursor_hit_rate);
      return 1;
    }
  }
  return 0;
}
