#include "bench/harness.hpp"

#include <cstring>
#include <memory>
#include <thread>

#include "cracer/cracer_detector.hpp"
#include "kernels/kernels.hpp"
#include "pint/pint_detector.hpp"
#include "runtime/scheduler.hpp"
#include "stint/stint_detector.hpp"
#include "support/assert.hpp"
#include "support/telemetry.hpp"
#include "support/timer.hpp"

namespace pint::bench {

namespace {

const char* system_tag(System s) {
  switch (s) {
    case System::kBaseline: return "base";
    case System::kStint: return "stint";
    case System::kPint: return "pint";
    case System::kPintSeq: return "pintseq";
    case System::kCracer: return "cracer";
  }
  return "unknown";
}

/// "trace.json" + "mmul-pintseq-w1" -> "trace-mmul-pintseq-w1.json", so one
/// --trace-out base path serves every cell of a figure's sweep.
std::string tagged_path(const std::string& base, const std::string& tag) {
  const auto slash = base.find_last_of('/');
  const auto dot = base.find_last_of('.');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return base + "-" + tag;
  }
  return base.substr(0, dot) + "-" + tag + base.substr(dot);
}

std::string spec_tag(const RunSpec& spec) {
  std::string t = spec.kernel + "-" + system_tag(spec.system) + "-w" +
                  std::to_string(spec.workers);
  if (spec.history_shards > 0) t += "-s" + std::to_string(spec.history_shards);
  if (!spec.coalesce) t += "-raw";
  if (spec.history == detect::HistoryKind::kGranuleMap) t += "-hash";
  return t;
}

/// The unified dispatch seam: every detector system is constructed here and
/// driven through detect::DetectorRunner afterwards.  Baseline (no detector)
/// returns nullptr and is timed inline by run_once().
std::unique_ptr<detect::DetectorRunner> make_runner(const RunSpec& spec) {
  switch (spec.system) {
    case System::kBaseline:
      return nullptr;
    case System::kStint: {
      stint::StintDetector::Options o;
      o.coalesce = spec.coalesce;
      o.history = spec.history;
      o.seed = spec.seed;
      return std::make_unique<stint::StintDetector>(o);
    }
    case System::kPint:
    case System::kPintSeq: {
      pintd::PintDetector::Options o;
      o.core_workers = spec.workers;
      o.parallel_history = spec.system == System::kPint;
      o.coalesce = spec.coalesce;
      o.history = spec.history;
      o.history_shards = spec.history_shards;
      o.seed = spec.seed;
      return std::make_unique<pintd::PintDetector>(o);
    }
    case System::kCracer: {
      cracer::CracerDetector::Options o;
      o.workers = spec.workers;
      o.seed = spec.seed;
      return std::make_unique<cracer::CracerDetector>(o);
    }
  }
  return nullptr;
}

/// Stats snapshot flattened for write_metrics_json()'s "stats" section:
/// every counter of the Stats table, then the run's degradation status.
std::vector<std::pair<std::string, std::uint64_t>> stats_kv(
    const detect::Stats::Snapshot& s, const detect::RunResult& rr) {
  return {
#define PINT_STATS_KV(name) {#name, s.name},
      PINT_STATS_COUNTERS(PINT_STATS_KV)
#undef PINT_STATS_KV
      {"run_status", std::uint64_t(rr.status)},
      {"degraded_sequential_history",
       std::uint64_t(rr.degraded_sequential_history)},
      {"watchdog_tripped", std::uint64_t(rr.watchdog_tripped)},
  };
}

BenchResult run_once(const RunSpec& spec, bool traced) {
  kernels::KernelConfig kc;
  kc.scale = spec.scale;
  kc.seed = spec.seed;
  auto k = kernels::make_kernel(spec.kernel, kc);
  k->prepare();

  BenchResult r;
  Timer setup;
  auto runner = make_runner(spec);
  r.setup_seconds = setup.elapsed_s();
  if (runner == nullptr) {
    rt::Scheduler::Options so;
    so.workers = spec.workers;
    rt::Scheduler sched(so);
    Timer t;
    sched.run([&] { k->run(); });
    r.seconds = t.elapsed_s();
  } else {
    if (traced) {
      telem::reset();
      telem::set_enabled(true);
    }
    r.detect = runner->run([&] { k->run(); });
    if (traced) {
      telem::set_enabled(false);
      const std::string tag = spec_tag(spec);
      if (!spec.trace_out.empty()) {
        const std::string p = tagged_path(spec.trace_out, tag);
        if (telem::write_chrome_trace(p)) {
          r.trace_path = p;
        } else {
          std::fprintf(stderr,
                       "# warning: could not write trace %s (I/O error or "
                       "PINT_TELEMETRY=OFF build)\n",
                       p.c_str());
        }
      }
      if (!spec.stats_json.empty()) {
        const std::string p = tagged_path(spec.stats_json, tag);
        if (telem::write_metrics_json(
                p, stats_kv(runner->stats().snapshot(), r.detect))) {
          r.stats_path = p;
        } else {
          std::fprintf(stderr,
                       "# warning: could not write metrics %s (I/O error or "
                       "PINT_TELEMETRY=OFF build)\n",
                       p.c_str());
        }
      }
    }
    r.seconds = double(runner->stats().total_ns.load()) * 1e-9;
    r.races = runner->reporter().distinct_races();
    r.stats = runner->stats().snapshot();
  }
  r.verified = !spec.verify || k->verify();
  return r;
}

}  // namespace

BenchResult run_spec(const RunSpec& spec) {
  // Telemetry is captured on the LAST rep only and that rep is returned, so
  // the exported trace describes exactly the run the figure prints.  Without
  // telemetry the historical best-of-reps selection applies.
  const bool tracing =
      spec.system != System::kBaseline &&
      (!spec.trace_out.empty() || !spec.stats_json.empty());
  BenchResult best;
  for (int i = 0; i < spec.reps; ++i) {
    const bool last = i + 1 == spec.reps;
    BenchResult r = run_once(spec, tracing && last);
    PINT_CHECK_MSG(r.verified, "benchmark kernel verification failed");
    PINT_CHECK_MSG(r.races == 0, "unexpected race reported on race-free kernel");
    if (i == 0 || (tracing ? last : r.seconds < best.seconds)) {
      best = std::move(r);
    }
  }
  return best;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const char* s = argv[i];
    auto next = [&]() -> const char* {
      PINT_CHECK_MSG(i + 1 < argc, "missing flag value");
      return argv[++i];
    };
    // Accepts both "--flag VALUE" and "--flag=VALUE" for the telemetry
    // flags (the ci.sh lane and docs use the = form).
    auto eq_value = [&](const char* flag) -> const char* {
      const std::size_t n = std::strlen(flag);
      if (std::strncmp(s, flag, n) == 0 && s[n] == '=') return s + n + 1;
      return nullptr;
    };
    if (std::strcmp(s, "--scale") == 0) {
      a.scale = std::atof(next());
    } else if (std::strcmp(s, "--workers") == 0) {
      a.workers = std::atoi(next());
    } else if (std::strcmp(s, "--reps") == 0) {
      a.reps = std::atoi(next());
    } else if (std::strcmp(s, "--kernel") == 0) {
      a.kernels.push_back(next());
    } else if (std::strcmp(s, "--trace-out") == 0) {
      a.trace_out = next();
    } else if (const char* v = eq_value("--trace-out")) {
      a.trace_out = v;
    } else if (std::strcmp(s, "--stats-json") == 0) {
      a.stats_json = next();
    } else if (const char* v2 = eq_value("--stats-json")) {
      a.stats_json = v2;
    } else if (std::strcmp(s, "--json") == 0) {
      a.json = next();
    } else if (const char* v3 = eq_value("--json")) {
      a.json = v3;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--scale S] [--workers N] [--reps R] "
                   "[--kernel NAME]... [--trace-out FILE] [--stats-json FILE] "
                   "[--json FILE]\n",
                   argv[0]);
      std::exit(2);
    }
  }
  return a;
}

void print_environment_note(const char* figure) {
  std::printf("# %s\n", figure);
  std::printf(
      "# Host: %u hardware thread(s). The paper used 2x20-core Xeon Gold "
      "6148;\n"
      "# here core workers plus PINT's 2 history workers can outnumber the\n"
      "# host's threads and timeslice, so parallel speedups stay far below\n"
      "# the paper's and the meaningful comparisons are the single-core\n"
      "# work/overhead ratios (see DESIGN.md, substitutions).\n",
      std::thread::hardware_concurrency());
}

}  // namespace pint::bench
