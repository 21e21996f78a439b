// pintbench - the repo benchmark (benchmark/README.md).
//
// Runs one workload: a fixed list of kernels, each run per pass once
// uninstrumented and once under PINT on freshly prepared inputs, with the
// order of the two alternating between passes and between kernels so host
// drift cancels out of the ratios.  One untimed warm-up pass precedes the
// timed passes.  Every PINT run is checked (run status, race verdict against
// the kernel's expectation, numerical result); failures feed fail_rate.
//
// Only public entry points are used, and every layer is timed from outside,
// around the calls this file makes into it: kernels::make_kernel/prepare,
// make_detector, DetectorRunner::run, rt::Scheduler::run (the baseline),
// reporter(), stats() and verify().
//
//   pintbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--trace-dir DIR]
//   pintbench --smoke [--trace-dir DIR]
//
// Output: every metric by name with its unit, then as the last line one JSON
// object {"correct", "attempted", "failed", "metrics"} holding the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "pint_api.hpp"

using namespace pint;

namespace {

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct KernelSpec {
  const char* name;
  double scale;
  /// Seeded-race variant: PINT must report a race, and verify() is not
  /// checked (a racy run may legitimately compute a torn result).
  bool seeded;
};

struct Workload {
  const char* name;
  /// PINT mode: true = 1 core worker + 3 concurrent treap workers (the
  /// paper's P-3 setup at P = 4); false = the phased one-core mode.
  bool parallel_history;
  /// Worker count of the uninstrumented baseline run.
  int base_workers;
  std::vector<KernelSpec> kernels;
};

// Why each workload exists is recorded in benchmark/README.md.  Scales make
// every baseline run take tens of milliseconds, so timer jitter and
// per-run set-up are noise against the measured work.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"dense-seq", false, 1,
       {{"chol", 64, false}, {"stra", 8, false}, {"straz", 8, false},
        {"sort", 4, false}}},
      {"sparse-seq", false, 1,
       {{"fft", 16, false}, {"heat", 32, false}, {"mmul", 8, false}}},
      {"suite-par", true, 4,
       {{"heat", 32, false}, {"mmul", 8, false}, {"sort", 4, false},
        {"fft", 16, false}}},
      {"racy-seq", false, 1,
       {{"mmul", 1, true}, {"sort", 4, true}, {"heat", 8, true},
        {"lkcache", 64, false}, {"lkcache", 64, true},
        {"lktwin", 256, false}, {"lktwin", 256, true}}},
  };
  return all;
}

constexpr double kSmokeScale = 0.125;
constexpr int kSmokePasses = 2;

// --seconds buys a pass COUNT, not a deadline: every run of a workload then
// does the same work, so its memory retention (peak_rss_mb grows with each
// PINT run) compares across runs.  0.8 s is the mean pass time over the four
// workloads on the reference host (4-core x86-64, g++ 12.2), so the default
// 24 s gives R = 30 timed passes, which leaves 10 samples above p66.
constexpr double kNominalPassS = 0.8;

int timed_passes(double seconds) {
  return std::max(2, int(std::lround(seconds / kNominalPassS)));
}

std::string kernel_id(const KernelSpec& k) {
  return std::string(k.name) + (k.seeded ? "-seeded" : "");
}

std::string kernel_label(const KernelSpec& k, double scale) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s@%g%s", k.name, scale,
                k.seeded ? "*" : "");
  return buf;
}

// ---------------------------------------------------------------------------
// Clocks and memory
// ---------------------------------------------------------------------------

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double rss_mb() {
  long pages = 0, resident = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return double(resident) * double(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

// ---------------------------------------------------------------------------
// Spans: the benchmark's own trace (workload > pass > kernel > call)
// ---------------------------------------------------------------------------

struct Span {
  int id = 0;
  int parent = -1;
  const char* name = "";
  std::string request;  // <workload>/<pass>/<kernel>, or a prefix of it
  double t0 = 0.0, t1 = 0.0;
  /// Time inside the span measured by the program's own stopwatches (the
  /// detection run's total_ns); not part of the span's self time.
  double inner = 0.0;
};

class SpanLog {
 public:
  int open(const char* name, int parent, std::string request) {
    Span s;
    s.id = int(spans_.size());
    s.parent = parent;
    s.name = name;
    s.request = std::move(request);
    s.t0 = wall_s();
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }
  void close(int id) { spans_[id].t1 = wall_s(); }
  void set_inner(int id, double s) { spans_[id].inner = s; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// RAII span.  A null log records nothing (untraced passes).
class SpanScope {
 public:
  SpanScope(SpanLog* log, const char* name, int parent, std::string request)
      : log_(log),
        id_(log ? log->open(name, parent, std::move(request)) : -1) {}
  ~SpanScope() {
    if (log_ != nullptr) log_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int id() const { return id_; }
  void set_inner(double s) {
    if (log_ != nullptr) log_->set_inner(id_, s);
  }

 private:
  SpanLog* log_;
  int id_;
};

// ---------------------------------------------------------------------------
// One kernel in one pass
// ---------------------------------------------------------------------------

struct Sample {
  double base_wall = 0.0, base_cpu = 0.0;
  double pint_wall = 0.0, pint_cpu = 0.0;  // around DetectorRunner::run()
  double construct = 0.0;                  // inside make_detector()
  double harvest = 0.0;                    // reporter() + stats()
  detect::Stats::Snapshot st{};
  std::uint64_t distinct = 0, raw = 0, dropped = 0;
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

class Runner {
 public:
  /// `root_span` parents the pass spans (-1 when untraced).
  Runner(const Workload& w, double scale_override, std::uint64_t seed,
         int root_span)
      : w_(w), scale_override_(scale_override), seed_(seed),
        root_span_(root_span) {}

  double scale(const KernelSpec& k) const {
    return scale_override_ > 0 ? scale_override_ : k.scale;
  }

  /// One pass over every kernel.  `log` (may be null) receives the spans.
  std::vector<Sample> pass(int index, SpanLog* log) {
    const std::string preq = std::string(w_.name) + "/" + std::to_string(index);
    SpanScope ps(log, "pass", root_span_, preq);
    std::vector<Sample> out(w_.kernels.size());
    for (std::size_t i = 0; i < w_.kernels.size(); ++i) {
      const KernelSpec& k = w_.kernels[i];
      const std::string req = preq + "/" + kernel_label(k, scale(k));
      SpanScope ks(log, "kernel", ps.id(), req);
      // Each pass draws fresh inputs from (seed, pass): how much memory a
      // PINT run retains depends on its input, so one input repeated R
      // times would make peak_rss_mb swing R times harder from seed to seed.
      const std::uint64_t input_seed =
          seed_ + std::uint64_t(index) * 0x9e3779b97f4a7c15ULL;
      Ctx c{k, req, input_seed, log, ks.id(), out[i]};
      if ((index + int(i)) % 2 == 0) {
        detected(c);
        baseline(c);
      } else {
        baseline(c);
        detected(c);
      }
    }
    // Hand the allocator's free memory back between passes.  Without this,
    // how much freed memory the history threads' per-thread malloc arenas
    // keep varies from run to run (suite-par peak RSS: 110-126 MiB on one
    // seed, 94-98 MiB with it); with it, peak_rss_mb measures what PINT
    // itself holds.  Single-threaded workloads are unchanged by it.
    malloc_trim(0);
    return out;
  }

  const Tally& tally() const { return tally_; }

 private:
  struct Ctx {
    const KernelSpec& k;
    const std::string& req;
    std::uint64_t input_seed;
    SpanLog* log;
    int parent;
    Sample& s;
  };

  std::unique_ptr<kernels::KernelInstance> prepared(const Ctx& c) {
    SpanScope sp(c.log, "prepare", c.parent, c.req);
    kernels::KernelConfig kc;
    kc.scale = scale(c.k);
    kc.seeded_race = c.k.seeded;
    kc.seed = c.input_seed;
    auto kern = kernels::make_kernel(c.k.name, kc);
    kern->prepare();
    return kern;
  }

  void fail(const Ctx& c, const char* why) {
    ++tally_.failed;
    std::fprintf(stderr, "FAIL %s: %s\n", c.req.c_str(), why);
  }

  void baseline(const Ctx& c) {
    auto kern = prepared(c);
    {
      SpanScope sp(c.log, "base", c.parent, c.req);
      rt::Scheduler::Options so;
      so.workers = w_.base_workers;
      so.seed = seed_;
      rt::Scheduler sched(so);
      const double c0 = cpu_s(), t0 = wall_s();
      sched.run([&] { kern->run(); });
      c.s.base_wall = wall_s() - t0;
      c.s.base_cpu = cpu_s() - c0;
    }
    ++tally_.attempted;
    SpanScope sp(c.log, "verify", c.parent, c.req);
    if (!c.k.seeded && !kern->verify()) fail(c, "uninstrumented verify()");
  }

  void detected(const Ctx& c) {
    auto kern = prepared(c);
    DetectorSpec spec;
    spec.kind = DetectorKind::kPint;
    spec.workers = 1;
    spec.parallel_history = w_.parallel_history;
    spec.common.seed = seed_;
    std::unique_ptr<detect::DetectorRunner> det;
    {
      SpanScope sp(c.log, "construct", c.parent, c.req);
      const double t0 = wall_s();
      det = make_detector(spec);
      c.s.construct = wall_s() - t0;
    }
    detect::RunResult rr;
    {
      SpanScope sp(c.log, "run", c.parent, c.req);
      const double c0 = cpu_s(), t0 = wall_s();
      rr = det->run([&] { kern->run(); });
      c.s.pint_wall = wall_s() - t0;
      c.s.pint_cpu = cpu_s() - c0;
      sp.set_inner(double(det->stats().total_ns.load()) * 1e-9);
    }
    bool raced = false;
    {
      SpanScope sp(c.log, "harvest", c.parent, c.req);
      const double t0 = wall_s();
      const detect::RaceReporter& rep = det->reporter();
      raced = rep.any();
      c.s.distinct = rep.distinct_races();
      c.s.raw = rep.raw_reports();
      c.s.dropped = rep.dropped_records();
      c.s.st = det->stats().snapshot();
      c.s.harvest = wall_s() - t0;
    }
    ++tally_.attempted;
    SpanScope sp(c.log, "verify", c.parent, c.req);
    if (!rr.ok()) {
      fail(c, rr.status_name());
    } else if (rr.degraded_sequential_history) {
      fail(c, "degraded to sequential history");
    } else if (raced != c.k.seeded) {
      fail(c, raced ? "race reported on a race-free kernel"
                    : "seeded race not reported");
    } else if (!c.k.seeded && !kern->verify()) {
      fail(c, "verify()");
    }
  }

  const Workload& w_;
  double scale_override_;
  std::uint64_t seed_;
  int root_span_;
  Tally tally_;
};

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

enum class Kind { kEndToEnd, kLayer, kInfo };

struct MetricDef {
  const char* name;
  const char* unit;
  Kind kind;
};

// The metric schema, in print order.  kEndToEnd and kLayer names are the
// `end_to_end` and `per_layer` lists of BENCHMARK.json; kInfo metrics are
// printed but not part of the result line.  fail_rate is 0 by design.  The
// absolute verdict times move 10-18% between processes with the shared
// host's speed (the uninstrumented times move with them), so the gated form
// divides each pass by its own interleaved uninstrumented time.
const std::vector<MetricDef>& metric_defs() {
  static const std::vector<MetricDef> defs = {
      {"overhead", "x", Kind::kEndToEnd},
      {"cpu_overhead", "x", Kind::kEndToEnd},
      {"verdict_overhead_p50", "x", Kind::kEndToEnd},
      {"verdict_overhead_p66", "x", Kind::kEndToEnd},
      {"peak_rss_mb", "MiB", Kind::kEndToEnd},
      {"setup_s", "s", Kind::kEndToEnd},
      {"verdict_s_p50", "s", Kind::kInfo},
      {"verdict_s_p66", "s", Kind::kInfo},
      {"fail_rate", "fraction", Kind::kInfo},
      {"runtime.base_s", "s", Kind::kLayer},
      {"runtime.strands", "count", Kind::kLayer},
      {"runtime.steals", "count", Kind::kLayer},
      {"detect.core_ns_per_access", "ns", Kind::kLayer},
      {"detect.raw_accesses", "count", Kind::kLayer},
      {"detect.intervals", "count", Kind::kLayer},
      {"detect.coalesce_factor", "x", Kind::kLayer},
      {"detect.cursor_hit_rate", "fraction", Kind::kLayer},
      {"detect.cursor_spills", "count", Kind::kLayer},
      {"detect.tail_hit_rate", "fraction", Kind::kLayer},
      {"detect.finalize_sorted", "count", Kind::kLayer},
      {"pint.core_s", "s", Kind::kLayer},
      {"pint.drain_s", "s", Kind::kLayer},
      {"pint.unattributed_s", "s", Kind::kLayer},
      {"pint.envelope_s", "s", Kind::kLayer},
      {"pint.construct_s", "s", Kind::kLayer},
      {"pint.cpu_s", "s", Kind::kLayer},
      {"pint.spin_s", "s", Kind::kLayer},
      {"pint.batch_drains", "count", Kind::kLayer},
      {"pint.avg_batch", "strands", Kind::kLayer},
      {"pint.stalled_pushes", "count", Kind::kLayer},
      {"pint.backoff_pauses", "count", Kind::kLayer},
      {"pint.deep_backoffs", "count", Kind::kLayer},
      {"pint.empty_strand_skips", "count", Kind::kLayer},
      {"pint.traces", "count", Kind::kLayer},
      {"history.writer_s", "s", Kind::kLayer},
      {"history.lreader_s", "s", Kind::kLayer},
      {"history.rreader_s", "s", Kind::kLayer},
      {"history.lane_max_s", "s", Kind::kLayer},
      {"history.ns_per_interval", "ns", Kind::kLayer},
      {"history.bulk_runs", "count", Kind::kLayer},
      {"history.avg_run_len", "intervals", Kind::kLayer},
      {"reach.queries", "count", Kind::kLayer},
      {"reach.memo_hit_rate", "fraction", Kind::kLayer},
      {"report.distinct", "count", Kind::kLayer},
      {"report.raw", "count", Kind::kLayer},
      {"report.dropped", "count", Kind::kLayer},
      {"report.harvest_s", "s", Kind::kLayer},
      {"arena.reuses", "count", Kind::kLayer},
      {"arena.fresh", "count", Kind::kLayer},
      {"mem.rss_growth_mb", "MiB", Kind::kLayer},
      {"trace.overhead", "x", Kind::kLayer},
  };
  return defs;
}

double median(std::vector<double> v) {
  if (v.empty()) return NAN;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (p66 at R = 30 leaves 10 samples above it).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return NAN;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * double(v.size()));
  return v[std::size_t(std::clamp(rank, 1.0, double(v.size()))) - 1];
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

using Field = std::function<double(const Sample&)>;

/// Per-kernel medians over the timed passes.
struct Passes {
  const std::vector<std::vector<Sample>>& p;

  double kmed(std::size_t k, const Field& f) const {
    std::vector<double> v;
    for (const auto& pass : p) v.push_back(f(pass[k]));
    return median(v);
  }
  /// Median per kernel, summed over the workload.
  double sum(const Field& f) const {
    double s = 0.0;
    for (std::size_t k = 0; k < p.front().size(); ++k) s += kmed(k, f);
    return s;
  }
  /// Geomean over kernels of the per-kernel median of `ratio`.
  double geomean(const Field& ratio) const {
    double logs = 0.0;
    const std::size_t n = p.front().size();
    for (std::size_t k = 0; k < n; ++k) logs += std::log(kmed(k, ratio));
    return std::exp(logs / double(n));
  }
  /// One value per pass: the field summed over the pass's kernels.
  std::vector<double> per_pass(const Field& f) const {
    std::vector<double> v;
    for (const auto& pass : p) {
      double s = 0.0;
      for (const Sample& x : pass) s += f(x);
      v.push_back(s);
    }
    return v;
  }
};

double ns_s(std::uint64_t ns) { return double(ns) * 1e-9; }
double lanes_s(const Sample& x) {
  return ns_s(x.st.writer_ns + x.st.lreader_ns + x.st.rreader_ns);
}

struct RunSummary {
  std::map<std::string, double> m;
  std::map<std::string, double> kernel_overhead;  // kernel id -> x
};

RunSummary summarize(const Workload& w,
                     const std::vector<std::vector<Sample>>& timed,
                     const std::vector<Sample>& first_pass, double rss_growth,
                     double peak_rss) {
  RunSummary r;
  auto& m = r.m;
  const Passes P{timed};
  const Field base_wall = [](const Sample& x) { return x.base_wall; };
  const Field pint_wall = [](const Sample& x) { return x.pint_wall; };

  // Ratios pair each PINT run with the uninstrumented run of the same kernel
  // in the same pass, which ran right next to it, so drift cancels.
  const Field wall_ratio = [](const Sample& x) {
    return x.pint_wall / x.base_wall;
  };
  m["overhead"] = P.geomean(wall_ratio);
  m["cpu_overhead"] =
      P.geomean([](const Sample& x) { return x.pint_cpu / x.base_cpu; });
  const std::vector<double> verdict = P.per_pass(pint_wall);
  const std::vector<double> base = P.per_pass(base_wall);
  std::vector<double> slowdown;
  for (std::size_t i = 0; i < verdict.size(); ++i) {
    slowdown.push_back(verdict[i] / base[i]);
  }
  m["verdict_overhead_p50"] = median(slowdown);
  m["verdict_overhead_p66"] = percentile(slowdown, 66);
  m["verdict_s_p50"] = median(verdict);
  m["verdict_s_p66"] = percentile(verdict, 66);
  m["peak_rss_mb"] = peak_rss;
  m["setup_s"] =
      median(P.per_pass([](const Sample& x) { return x.construct; }));

  auto stat = [&](std::uint64_t detect::Stats::Snapshot::*f) {
    return P.sum([f](const Sample& x) { return double(x.st.*f); });
  };
  using S = detect::Stats::Snapshot;

  m["runtime.base_s"] = P.sum(base_wall);
  m["runtime.strands"] = stat(&S::strands);
  m["runtime.steals"] = stat(&S::steals);

  const double raw = P.sum([](const Sample& x) {
    return double(x.st.raw_reads + x.st.raw_writes);
  });
  const double intervals = P.sum([](const Sample& x) {
    return double(x.st.read_intervals + x.st.write_intervals);
  });
  const double core = P.sum([](const Sample& x) { return ns_s(x.st.core_ns); });
  m["detect.core_ns_per_access"] = ratio(core - m["runtime.base_s"], raw) * 1e9;
  m["detect.raw_accesses"] = raw;
  m["detect.intervals"] = intervals;
  m["detect.coalesce_factor"] = ratio(raw, intervals);
  m["detect.cursor_hit_rate"] =
      ratio(stat(&S::fastpath_hits), stat(&S::fastpath_accesses));
  m["detect.cursor_spills"] = stat(&S::cursor_spills);
  m["detect.tail_hit_rate"] =
      ratio(stat(&S::tail_probe_hits),
            stat(&S::tail_probe_hits) + stat(&S::tail_probe_misses));
  m["detect.finalize_sorted"] = stat(&S::finalize_sorted_skips);

  m["pint.core_s"] = core;
  m["pint.drain_s"] =
      P.sum([](const Sample& x) { return ns_s(x.st.total_ns - x.st.core_ns); });
  m["pint.unattributed_s"] = P.sum([](const Sample& x) {
    return ns_s(x.st.total_ns) - ns_s(x.st.core_ns) - lanes_s(x);
  });
  m["pint.envelope_s"] =
      P.sum([](const Sample& x) { return x.pint_wall - ns_s(x.st.total_ns); });
  double cold = 0.0;
  for (const Sample& x : first_pass) cold += x.construct;
  m["pint.construct_s"] = cold;
  m["pint.cpu_s"] = P.sum([](const Sample& x) { return x.pint_cpu; });
  m["pint.spin_s"] = P.sum([](const Sample& x) {
    return x.pint_cpu - ns_s(x.st.core_ns) - lanes_s(x);
  });
  m["pint.batch_drains"] = stat(&S::batch_drains);
  m["pint.avg_batch"] = ratio(stat(&S::batch_strands), stat(&S::batch_drains));
  m["pint.stalled_pushes"] = stat(&S::stalled_pushes);
  m["pint.backoff_pauses"] = stat(&S::backoff_pauses);
  m["pint.deep_backoffs"] = stat(&S::deep_backoffs);
  m["pint.empty_strand_skips"] = stat(&S::empty_strand_skips);
  m["pint.traces"] = stat(&S::traces);

  m["history.writer_s"] = stat(&S::writer_ns) * 1e-9;
  m["history.lreader_s"] = stat(&S::lreader_ns) * 1e-9;
  m["history.rreader_s"] = stat(&S::rreader_ns) * 1e-9;
  m["history.lane_max_s"] = P.sum([](const Sample& x) {
    return ns_s(std::max({x.st.writer_ns, x.st.lreader_ns, x.st.rreader_ns}));
  });
  m["history.ns_per_interval"] = ratio(P.sum(lanes_s), intervals) * 1e9;
  m["history.bulk_runs"] = stat(&S::bulk_runs);
  m["history.avg_run_len"] =
      ratio(stat(&S::bulk_run_intervals), stat(&S::bulk_runs));

  m["reach.queries"] = stat(&S::reach_queries);
  m["reach.memo_hit_rate"] = ratio(stat(&S::memo_hits), stat(&S::memo_queries));

  m["report.distinct"] =
      P.sum([](const Sample& x) { return double(x.distinct); });
  m["report.raw"] = P.sum([](const Sample& x) { return double(x.raw); });
  m["report.dropped"] =
      P.sum([](const Sample& x) { return double(x.dropped); });
  m["report.harvest_s"] = P.sum([](const Sample& x) { return x.harvest; });

  m["arena.reuses"] = stat(&S::arena_reuses);
  m["arena.fresh"] = stat(&S::arena_fresh);
  m["mem.rss_growth_mb"] = rss_growth;

  for (std::size_t k = 0; k < w.kernels.size(); ++k) {
    r.kernel_overhead[kernel_id(w.kernels[k])] = P.kmed(k, wall_ratio);
  }
  return r;
}

// ---------------------------------------------------------------------------
// Traced-run output
// ---------------------------------------------------------------------------

bool write_spans(const std::string& path, const Workload& w, std::uint64_t seed,
                 const SpanLog& log) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double origin = log.spans().empty() ? 0.0 : log.spans().front().t0;
  auto ns = [origin](double t) {
    return (long long)std::llround((t - origin) * 1e9);
  };
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"spans\": [\n",
               w.name, (unsigned long long)seed);
  const auto& spans = log.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "  {\"id\": %d, \"parent\": %d, \"name\": \"%s\", "
                 "\"request\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"inner_ns\": %lld}%s\n",
                 s.id, s.parent, s.name, s.request.c_str(), ns(s.t0), ns(s.t1),
                 (long long)std::llround(s.inner * 1e9),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

/// Self time per span name (span time minus child spans and the program's
/// own stopwatches), plus the stopwatch ledger inside the `run` spans, as a
/// mean per traced pass.  The rows add up to the traced pass time.
void print_self_times(const Workload& w, const SpanLog& log,
                      const std::vector<std::vector<Sample>>& traced) {
  const auto& spans = log.spans();
  std::vector<double> child(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child[s.parent] += s.t1 - s.t0;
  }
  std::vector<std::pair<std::string, double>> rows;
  auto add = [&rows](const std::string& name, double v) {
    for (auto& r : rows) {
      if (r.first == name) {
        r.second += v;
        return;
      }
    }
    rows.emplace_back(name, v);
  };
  // The workload root is left out: its self time is the untraced passes.
  for (const Span& s : spans) {
    if (s.parent >= 0) add(s.name, s.t1 - s.t0 - child[s.id] - s.inner);
  }
  for (const auto& pass : traced) {
    for (const Sample& x : pass) {
      add("pint.core", ns_s(x.st.core_ns));
      if (w.parallel_history) {
        add("pint.drain", ns_s(x.st.total_ns - x.st.core_ns));
      } else {
        add("history.writer", ns_s(x.st.writer_ns));
        add("history.lreader", ns_s(x.st.lreader_ns));
        add("history.rreader", ns_s(x.st.rreader_ns));
        add("pint.unattributed",
            ns_s(x.st.total_ns - x.st.core_ns) - lanes_s(x));
      }
    }
  }
  const double n = double(std::max<std::size_t>(1, traced.size()));
  double total = 0.0;
  std::printf("# layer self time, mean per traced pass (%zu passes)\n",
              traced.size());
  for (const auto& r : rows) {
    std::printf("self.%-24s %14.6f s\n", r.first.c_str(), r.second / n);
    total += r.second / n;
  }
  std::printf("self.%-24s %14.6f s\n", "total", total);
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 24.0;
  bool trace = false;
  std::string trace_dir = "build-bench/trace";
  bool smoke = false;
};

struct Result {
  RunSummary summary;
  Tally tally;
  int timed_passes = 0;
};

Result run_workload(const Workload& w, const Options& o) {
  SpanLog log;
  const int root = o.trace ? log.open("workload", -1, w.name) : -1;
  Runner runner(w, o.smoke ? kSmokeScale : 0.0, o.seed, root);

  // Warm-up: caches, arenas and lazy set-up fill here, untimed.  Its
  // construction times are the cold ones (pint.construct_s).
  int index = 0;
  std::vector<Sample> first_pass;
  if (!o.smoke) first_pass = runner.pass(index++, nullptr);
  const double rss_warm = rss_mb();

  // In a traced run every other pass records spans, so trace.overhead
  // compares traced and untraced passes of one process.
  const int passes = o.smoke ? kSmokePasses : timed_passes(o.seconds);
  std::vector<std::vector<Sample>> timed, traced;
  std::vector<double> verdict_on, verdict_off;
  while (int(timed.size()) < passes) {
    const bool spans = o.trace && timed.size() % 2 == 0;
    timed.push_back(runner.pass(index++, spans ? &log : nullptr));
    double v = 0.0;
    for (const Sample& x : timed.back()) v += x.pint_wall;
    (spans ? verdict_on : verdict_off).push_back(v);
    if (spans) traced.push_back(timed.back());
  }
  if (first_pass.empty()) first_pass = timed.front();

  Result res;
  res.timed_passes = int(timed.size());
  res.summary = summarize(w, timed, first_pass, rss_mb() - rss_warm,
                          peak_rss_mb());

  if (o.trace) {
    // One extra pass, outside every metric, with the program's own
    // telemetry armed: its Chrome trace shows the pipeline inside PINT.
    telem::reset();
    telem::set_enabled(true);
    runner.pass(index++, nullptr);
    telem::set_enabled(false);
    log.close(root);
    res.summary.m["trace.overhead"] = median(verdict_on) / median(verdict_off);
    print_self_times(w, log, traced);

    std::filesystem::create_directories(o.trace_dir);
    const std::string base = o.trace_dir + "/" + w.name;
    if (!telem::write_chrome_trace(base + ".chrome.json") ||
        !write_spans(base + ".spans.json", w, o.seed, log)) {
      std::fprintf(stderr, "FAIL: could not write %s.{chrome,spans}.json\n",
                   base.c_str());
      ++res.tally.failed;
    }
    telem::reset();
  }
  res.tally.attempted += runner.tally().attempted;
  res.tally.failed += runner.tally().failed;
  res.summary.m["fail_rate"] =
      ratio(double(res.tally.failed), double(res.tally.attempted));
  return res;
}

void print_metrics(const Workload& w, const Result& r) {
  std::printf("# workload %s: %d timed passes, %llu checked runs\n", w.name,
              r.timed_passes, (unsigned long long)r.tally.attempted);
  for (const MetricDef& d : metric_defs()) {
    const auto it = r.summary.m.find(d.name);
    if (it == r.summary.m.end()) continue;
    std::printf("%-28s %18.6f %s\n", d.name, it->second, d.unit);
  }
  for (const auto& [id, x] : r.summary.kernel_overhead) {
    std::printf("%-28s %18.6f x\n", ("kernel." + id + ".overhead").c_str(), x);
  }
}

/// The result line: end-to-end metrics, or per-layer ones when traced.
void print_result_line(const Result& r, bool trace) {
  const Kind want = trace ? Kind::kLayer : Kind::kEndToEnd;
  bool finite = true;
  std::string metrics;
  for (const MetricDef& d : metric_defs()) {
    if (d.kind != want) continue;
    const auto it = r.summary.m.find(d.name);
    const double v = it == r.summary.m.end() ? NAN : it->second;
    finite = finite && std::isfinite(v);
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", d.name,
                  std::isfinite(v) ? v : 0.0, d.unit);
    metrics += buf;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": "
      "{%s}}\n",
      finite && r.tally.failed == 0 ? "true" : "false",
      (unsigned long long)r.tally.attempted, (unsigned long long)r.tally.failed,
      metrics.c_str());
}

/// Refuses settings that silently change what is measured.
bool environment_ok() {
  bool ok = true;
  for (const char* var :
       {"PINT_TUNING", "PINT_FAILPOINTS", "PINT_TELEMETRY_EVENTS"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "error: %s is set; unset it to benchmark\n", var);
      ok = false;
    }
  }
  bool release = std::strcmp(PINTBENCH_BUILD_TYPE, "Release") == 0 &&
                 PINTBENCH_SAN[0] == '\0';
#ifndef NDEBUG
  release = false;
#endif
  if (!release) {
    std::fprintf(stderr,
                 "error: build type '%s' sanitizer '%s': pintbench measures "
                 "Release builds only\n",
                 PINTBENCH_BUILD_TYPE, PINTBENCH_SAN);
    ok = false;
  }
  return ok;
}

int smoke(Options o) {
  o.smoke = true;
  o.trace = true;
  bool ok = true;
  for (const Workload& w : workloads()) {
    const Result r = run_workload(w, o);
    print_metrics(w, r);
    for (const MetricDef& d : metric_defs()) {
      const auto it = r.summary.m.find(d.name);
      if (it == r.summary.m.end() || !std::isfinite(it->second)) {
        std::fprintf(stderr, "FAIL smoke %s: metric %s missing or not finite\n",
                     w.name, d.name);
        ok = false;
      }
    }
    for (const auto& [id, x] : r.summary.kernel_overhead) {
      if (!std::isfinite(x)) {
        std::fprintf(stderr, "FAIL smoke %s: kernel.%s.overhead not finite\n",
                     w.name, id.c_str());
        ok = false;
      }
    }
    if (r.tally.failed != 0) ok = false;
  }
  std::printf("smoke: %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--trace-dir DIR]\n"
               "       %s --smoke [--trace-dir DIR]\n"
               "workloads:",
               argv0, argv0);
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = next();
    } else if (a == "--seed") {
      const std::string v = next();
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage(argv[0]);
    } else if (a == "--seconds") {
      const std::string v = next();
      o.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(o.seconds > 0)) usage(argv[0]);
    } else if (a == "--trace") {
      const std::string v = next();
      if (v != "0" && v != "1") usage(argv[0]);
      o.trace = v == "1";
    } else if (a == "--trace-dir") {
      o.trace_dir = next();
    } else if (a == "--smoke") {
      o.smoke = true;
    } else {
      usage(argv[0]);
    }
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_args(argc, argv);
  if (!environment_ok()) return 2;
  const Workload* w = nullptr;
  for (const Workload& x : workloads()) {
    if (o.workload == x.name) w = &x;
  }
  if (!o.smoke && w == nullptr) usage(argv[0]);

  std::printf(
      "# env {\"reach_backend\": \"%s\", \"compiler\": \"%s\", \"nproc\": %u, "
      "\"seed\": %llu, \"build_type\": \"%s\"}\n",
      PINTBENCH_REACH_BACKEND, PINTBENCH_COMPILER,
      std::thread::hardware_concurrency(), (unsigned long long)o.seed,
      PINTBENCH_BUILD_TYPE);
  if (o.smoke) return smoke(o);

  const Result r = run_workload(*w, o);
  print_metrics(*w, r);
  print_result_line(r, o.trace);
  std::fflush(stdout);
  return r.tally.failed > 0 ? 1 : 0;
}
