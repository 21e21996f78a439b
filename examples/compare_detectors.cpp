// Compare the three race-detection systems on one of the paper's benchmark
// kernels - a miniature of the Figure-1 experiment you can point at any
// kernel and size:
//
//   $ ./compare_detectors [kernel] [scale] [workers]
//   $ ./compare_detectors mmul 4 4

#include <cstdio>
#include <cstdlib>
#include <string>

#include "pint_api.hpp"
#include "support/timer.hpp"

using namespace pint;

namespace {

kernels::KernelConfig make_cfg(double scale) {
  kernels::KernelConfig cfg;
  cfg.scale = scale;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "mmul";
  const double scale = argc > 2 ? std::atof(argv[2]) : 4.0;
  const int workers = argc > 3 ? std::atoi(argv[3]) : 4;

  std::printf("kernel=%s scale=%.2f workers=%d\n", name.c_str(), scale, workers);

  // Baseline: same binary, detection off (record_* calls early-out).
  double base_s = 0;
  {
    auto k = kernels::make_kernel(name, make_cfg(scale));
    k->prepare();
    rt::Scheduler::Options o;
    o.workers = workers;
    rt::Scheduler s(o);
    Timer t;
    s.run([&] { k->run(); });
    base_s = t.elapsed_s();
    std::printf("%-10s %8.3fs  (verified: %s)\n", "baseline", base_s,
                k->verify() ? "yes" : "NO");
  }
  {
    auto k = kernels::make_kernel(name, make_cfg(scale));
    k->prepare();
    stint::StintDetector det;
    det.run([&] { k->run(); });
    const double s = double(det.stats().total_ns.load()) * 1e-9;
    std::printf("%-10s %8.3fs  [%5.1fx]  races=%llu (sequential execution)\n",
                det.name(), s, s / base_s,
                (unsigned long long)det.reporter().distinct_races());
  }
  {
    auto k = kernels::make_kernel(name, make_cfg(scale));
    k->prepare();
    pintd::PintDetector::Options o;
    o.core_workers = workers;
    pintd::PintDetector det(o);
    det.run([&] { k->run(); });
    const double s = double(det.stats().total_ns.load()) * 1e-9;
    const auto st = det.stats().snapshot();
    std::printf(
        "%-10s %8.3fs  [%5.1fx]  races=%llu (%d core + 2 history workers, "
        "%.0fx coalescing)\n",
        det.name(), s, s / base_s,
        (unsigned long long)det.reporter().distinct_races(), workers,
        st.coalesce_factor());
  }
  {
    auto k = kernels::make_kernel(name, make_cfg(scale));
    k->prepare();
    cracer::CracerDetector::Options o;
    o.workers = workers;
    cracer::CracerDetector det(o);
    det.run([&] { k->run(); });
    const double s = double(det.stats().total_ns.load()) * 1e-9;
    std::printf("%-10s %8.3fs  [%5.1fx]  races=%llu (per-access shadow memory)\n",
                det.name(), s, s / base_s,
                (unsigned long long)det.reporter().distinct_races());
  }
  return 0;
}
