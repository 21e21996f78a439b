// Telemetry suite (label: telemetry): the span/counter recorder, the
// background sampler, the Chrome-trace/metrics exporters, and the unified
// detect::DetectorRunner seam the bench harness dispatches through.
//
// The exporter checks parse the emitted JSON with a minimal recursive-
// descent parser (no third-party dependency) and verify structural
// invariants: balanced begin/end spans per track, per-role span totals that
// agree with the detector's CPU-time Stats within tolerance, and a
// monotonic sampler time series.  The same file compiles under
// -DPINT_TELEMETRY=OFF, where it instead asserts that every stub is inert.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "detect/run_result.hpp"
#include "support/telemetry.hpp"

namespace pint::test {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON parser (objects, arrays, strings, numbers, bools, null)
// ---------------------------------------------------------------------------

struct JNode {
  enum Kind { kNull, kBool, kNum, kStr, kArr, kObj } kind = kNull;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<JNode> arr;
  std::map<std::string, JNode> obj;

  const JNode* get(const std::string& key) const {
    auto it = obj.find(key);
    return it == obj.end() ? nullptr : &it->second;
  }
};

class JParser {
 public:
  explicit JParser(const std::string& s) : s_(s) {}

  bool parse(JNode* out) {
    skip_ws();
    if (!value(out)) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool lit(const char* w, std::size_t n) {
    if (s_.compare(pos_, n, w) != 0) return false;
    pos_ += n;
    return true;
  }
  bool string(std::string* out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        if (pos_ + 1 >= s_.size()) return false;
        const char e = s_[pos_ + 1];
        pos_ += 2;
        switch (e) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          case 'r': out->push_back('\r'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'u':
            if (pos_ + 4 > s_.size()) return false;
            out->push_back('?');  // structural checks never read these
            pos_ += 4;
            break;
          default: return false;
        }
      } else {
        out->push_back(s_[pos_++]);
      }
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool value(JNode* out) {
    skip_ws();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') {
      out->kind = JNode::kObj;
      ++pos_;
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == '}') { ++pos_; return true; }
      for (;;) {
        skip_ws();
        std::string key;
        if (!string(&key)) return false;
        skip_ws();
        if (pos_ >= s_.size() || s_[pos_] != ':') return false;
        ++pos_;
        JNode v;
        if (!value(&v)) return false;
        out->obj.emplace(std::move(key), std::move(v));
        skip_ws();
        if (pos_ >= s_.size()) return false;
        if (s_[pos_] == ',') { ++pos_; continue; }
        if (s_[pos_] == '}') { ++pos_; return true; }
        return false;
      }
    }
    if (c == '[') {
      out->kind = JNode::kArr;
      ++pos_;
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == ']') { ++pos_; return true; }
      for (;;) {
        JNode v;
        if (!value(&v)) return false;
        out->arr.push_back(std::move(v));
        skip_ws();
        if (pos_ >= s_.size()) return false;
        if (s_[pos_] == ',') { ++pos_; continue; }
        if (s_[pos_] == ']') { ++pos_; return true; }
        return false;
      }
    }
    if (c == '"') {
      out->kind = JNode::kStr;
      return string(&out->str);
    }
    if (c == 't') { out->kind = JNode::kBool; out->b = true; return lit("true", 4); }
    if (c == 'f') { out->kind = JNode::kBool; out->b = false; return lit("false", 5); }
    if (c == 'n') { out->kind = JNode::kNull; return lit("null", 4); }
    // number
    std::size_t end = pos_;
    while (end < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[end])) || s_[end] == '-' ||
            s_[end] == '+' || s_[end] == '.' || s_[end] == 'e' || s_[end] == 'E')) {
      ++end;
    }
    if (end == pos_) return false;
    out->kind = JNode::kNum;
    out->num = std::atof(s_.substr(pos_, end - pos_).c_str());
    pos_ = end;
    return true;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string tmp_path(const char* leaf) {
  return ::testing::TempDir() + leaf;
}

// ---------------------------------------------------------------------------
// Workload: race-free spawn tree with enough accesses to fill real spans
// ---------------------------------------------------------------------------

constexpr int kDepth = 9;                       // 512 leaf strands
constexpr std::size_t kSlot = 256;              // bytes written per leaf

void tree(int depth, unsigned char* base, std::uint32_t idx) {
  if (depth == 0) {
    record_write(base + std::size_t(idx) * kSlot, kSlot);
    for (std::size_t i = 0; i < kSlot; ++i) base[std::size_t(idx) * kSlot + i] = 1;
    record_read(base + std::size_t(idx) * kSlot, kSlot);
    return;
  }
  rt::SpawnScope sc;
  sc.spawn([=] { tree(depth - 1, base, idx * 2); });
  sc.spawn([=] { tree(depth - 1, base, idx * 2 + 1); });
  sc.sync();
}

void run_workload() {
  static std::vector<unsigned char> buf((std::size_t(1) << kDepth) * kSlot);
  tree(kDepth, buf.data(), 0);
}

/// Runs STINT (`stint`) or phased one-core PINT with telemetry armed (a no-op
/// under -DPINT_TELEMETRY=OFF) and returns the detector's stats snapshot.
detect::Stats::Snapshot traced_interval_run(bool stint) {
  telem::reset();
  telem::set_enabled(true);
  detect::Stats::Snapshot s;
  if (stint) {
    stint::StintDetector d(stint::StintDetector::Options{});
    EXPECT_TRUE(d.run([] { run_workload(); }).ok());
    s = d.stats().snapshot();
  } else {
    pintd::PintDetector::Options o;
    o.core_workers = 1;
    o.parallel_history = false;
    pintd::PintDetector d(o);
    EXPECT_TRUE(d.run([] { run_workload(); }).ok());
    s = d.stats().snapshot();
  }
  telem::set_enabled(false);
  return s;
}

#if PINT_TELEMETRY_ENABLED

/// Runs the phased one-core PINT mode under telemetry and returns the
/// detector's stats snapshot.  Phased mode is the calibration target: each
/// role runs alone on the calling thread, so wall-clock spans and the
/// CPU-time stats watches measure the same work.
detect::Stats::Snapshot traced_pintseq_run() {
  telem::reset();
  telem::set_enabled(true);
  pintd::PintDetector::Options o;
  o.core_workers = 1;
  o.parallel_history = false;
  pintd::PintDetector d(o);
  const detect::RunResult rr = d.run([] { run_workload(); });
  telem::set_enabled(false);
  EXPECT_TRUE(rr.ok());
  EXPECT_FALSE(d.reporter().any());
  return d.stats().snapshot();
}

std::uint64_t span_total(const char* name) {
  for (const telem::Total& t : telem::span_totals()) {
    if (t.name == name) return t.total;
  }
  return 0;
}

// --- recorder + exporter ---------------------------------------------------

TEST(Telemetry, ChromeTraceIsValidWithBalancedSpans) {
  traced_pintseq_run();
  const std::string path = tmp_path("telem_trace.json");
  ASSERT_TRUE(telem::write_chrome_trace(path));

  JNode root;
  ASSERT_TRUE(JParser(slurp(path)).parse(&root)) << "trace is not valid JSON";
  ASSERT_EQ(root.kind, JNode::kObj);
  const JNode* events = root.get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JNode::kArr);
  ASSERT_FALSE(events->arr.empty());

  // Per-track span stack: every E matches the innermost open B of the same
  // name, and every track's stack is empty at end of trace.
  std::map<double, std::vector<std::string>> open;
  std::map<double, std::string> track_names;
  for (const JNode& e : events->arr) {
    ASSERT_EQ(e.kind, JNode::kObj);
    const JNode* ph = e.get("ph");
    const JNode* tid = e.get("tid");
    ASSERT_NE(ph, nullptr);
    ASSERT_NE(tid, nullptr);
    if (ph->str == "M") {
      const JNode* args = e.get("args");
      ASSERT_NE(args, nullptr);
      const JNode* nm = args->get("name");
      ASSERT_NE(nm, nullptr);
      track_names[tid->num] = nm->str;
      continue;
    }
    ASSERT_NE(e.get("ts"), nullptr);
    const JNode* name = e.get("name");
    ASSERT_NE(name, nullptr);
    if (ph->str == "B") {
      open[tid->num].push_back(name->str);
    } else if (ph->str == "E") {
      auto& stack = open[tid->num];
      ASSERT_FALSE(stack.empty()) << "E without open B on tid " << tid->num;
      EXPECT_EQ(stack.back(), name->str);
      stack.pop_back();
    } else {
      EXPECT_EQ(ph->str, "C") << "unexpected phase " << ph->str;
    }
  }
  for (const auto& [tid, stack] : open) {
    EXPECT_TRUE(stack.empty()) << "unbalanced spans on tid " << tid;
  }
  // Every tid that carried events was named via thread_name metadata, and
  // the phased run produced all four pipeline role tracks.
  std::vector<std::string> roles;
  for (const auto& [tid, nm] : track_names) roles.push_back(nm);
  for (const char* want : {"core0", "writer", "reader", "sampler"}) {
    bool found = false;
    for (const auto& r : roles) found = found || r == want;
    EXPECT_TRUE(found) << "missing track " << want;
  }
}

TEST(Telemetry, SpanTotalsAgreeWithStatsBreakdown) {
  const detect::Stats::Snapshot s = traced_pintseq_run();
  const struct { const char* span; std::uint64_t stat_ns; } rows[] = {
      {"writer.strand", s.writer_ns},
      {"reader.strand", s.lreader_ns},  // the one reader lane
  };
  for (const auto& row : rows) {
    const std::uint64_t sp = span_total(row.span);
    ASSERT_GT(sp, 0u) << row.span;
    ASSERT_GT(row.stat_ns, 0u) << row.span;
    // Spans use the wall clock, the stats watches use thread CPU time; in
    // phased mode they bracket the same code, so allow 25% relative plus a
    // small absolute slack for scheduler preemption on a busy host.
    const double diff = sp > row.stat_ns ? double(sp - row.stat_ns)
                                         : double(row.stat_ns - sp);
    EXPECT_LT(diff, 0.25 * double(row.stat_ns) + 2e6)
        << row.span << ": span=" << sp << " stats=" << row.stat_ns;
  }
}

TEST(Telemetry, SamplerSeriesIsMonotonicAndCoversRun) {
  traced_pintseq_run();
  std::uint64_t last_ts = 0;
  std::size_t samples = 0;
  bool saw_depth = false;
  for (const telem::EventRec& e : telem::snapshot_events()) {
    if (e.track != "sampler") continue;
    EXPECT_EQ(e.kind, telem::EventKind::kGauge);
    EXPECT_GE(e.ts_ns, last_ts);  // single sampler thread: time moves forward
    last_ts = e.ts_ns;
    ++samples;
    saw_depth = saw_depth || e.name == "queue.depth";
  }
  // One probe fires immediately and one on stop, so even a near-instant run
  // yields at least two rounds of gauges.
  EXPECT_GE(samples, 2u);
  EXPECT_TRUE(saw_depth);
}

TEST(Telemetry, MetricsJsonHasAllSections) {
  const detect::Stats::Snapshot s = traced_pintseq_run();
  const std::string path = tmp_path("telem_metrics.json");
  ASSERT_TRUE(telem::write_metrics_json(
      path, {{"total_ns", s.total_ns}, {"strands", s.strands}}));
  JNode root;
  ASSERT_TRUE(JParser(slurp(path)).parse(&root)) << "metrics is not valid JSON";
  for (const char* sec : {"spans", "counters", "series", "stats", "telemetry"}) {
    const JNode* n = root.get(sec);
    ASSERT_NE(n, nullptr) << sec;
    EXPECT_EQ(n->kind, JNode::kObj) << sec;
  }
  const JNode* spans = root.get("spans");
  ASSERT_NE(spans->get("writer.strand"), nullptr);
  const JNode* stats = root.get("stats");
  const JNode* strands = stats->get("strands");
  ASSERT_NE(strands, nullptr);
  EXPECT_EQ(std::uint64_t(strands->num), s.strands);
}

TEST(Telemetry, EveryStatsCounterIsExportedUnderItsName) {
  for (const bool stint : {true, false}) {
    const detect::Stats::Snapshot s = traced_interval_run(stint);
    std::map<std::string, std::uint64_t> got;
    for (const telem::Total& t : telem::counter_totals()) got[t.name] = t.total;
#define PINT_STATS_EXPECT(name)                                         \
  {                                                                     \
    const auto it = got.find(#name);                                    \
    if (it == got.end()) {                                              \
      ADD_FAILURE() << #name << " missing, stint=" << stint;            \
    } else {                                                            \
      EXPECT_EQ(it->second, s.name) << #name << ", stint=" << stint;    \
    }                                                                   \
  }
    PINT_STATS_COUNTERS(PINT_STATS_EXPECT)
#undef PINT_STATS_EXPECT
  }
  telem::reset();
}

TEST(Telemetry, DisabledRunRecordsNothing) {
  telem::reset();
  // Not enabled: every site must stay silent (this is the default-off state
  // every non-traced benchmark run relies on).
  pintd::PintDetector::Options o;
  o.core_workers = 1;
  o.parallel_history = false;
  pintd::PintDetector d(o);
  EXPECT_TRUE(d.run([] { run_workload(); }).ok());
  EXPECT_TRUE(telem::snapshot_events().empty());
  EXPECT_TRUE(telem::span_totals().empty());
  EXPECT_TRUE(telem::counter_totals().empty());
  EXPECT_EQ(telem::dropped_events(), 0u);
}

TEST(Telemetry, RingWrapKeepsTotalsExact) {
  telem::set_ring_capacity(1);  // clamps up to the minimum ring size
  telem::reset();               // applies the new capacity to live buffers
  telem::set_enabled(true);
  constexpr std::uint64_t kSpans = 5000;  // overflows the minimum ring
  for (std::uint64_t i = 0; i < kSpans; ++i) {
    telem::ScopedSpan span("wrap.test");
    telem::count("wrap.count");
  }
  telem::set_enabled(false);
  std::uint64_t n = 0;
  for (const telem::Total& t : telem::span_totals()) {
    if (t.name == "wrap.test") n = t.count;
  }
  EXPECT_EQ(n, kSpans);
  EXPECT_GT(telem::dropped_events(), 0u);
  telem::set_ring_capacity(std::size_t(1) << 16);  // default, for later tests
  telem::reset();
}

#else  // !PINT_TELEMETRY_ENABLED -------------------------------------------

TEST(TelemetryOff, StatsExportIsInert) {
  for (const bool stint : {true, false}) {
    traced_interval_run(stint);
    EXPECT_TRUE(telem::counter_totals().empty()) << "stint=" << stint;
  }
}

TEST(TelemetryOff, EverythingIsInert) {
  telem::set_enabled(true);
  EXPECT_FALSE(telem::enabled());
  {
    PINT_TSPAN("off.span");
    PINT_TCOUNT("off.count");
    telem::gauge("off.gauge", 1);
    telem::set_thread_role("off");
  }
  telem::Sampler sampler;
  sampler.start([](telem::Sampler::Sink& sink) { sink.gauge("g", 1); });
  sampler.stop();
  EXPECT_TRUE(telem::snapshot_events().empty());
  EXPECT_TRUE(telem::span_totals().empty());
  EXPECT_TRUE(telem::counter_totals().empty());
  EXPECT_EQ(telem::dropped_events(), 0u);
  EXPECT_FALSE(telem::write_chrome_trace(tmp_path("off_trace.json")));
  EXPECT_FALSE(telem::write_metrics_json(tmp_path("off_metrics.json")));
}

#endif  // PINT_TELEMETRY_ENABLED

// ---------------------------------------------------------------------------
// Unified runner seam (works in both telemetry build flavors)
// ---------------------------------------------------------------------------

TEST(RunnerSeam, AllDetectorsRunThroughDetectorRunner) {
  std::vector<std::unique_ptr<detect::DetectorRunner>> runners;
  {
    stint::StintDetector::Options o;
    runners.push_back(std::make_unique<stint::StintDetector>(o));
  }
  {
    pintd::PintDetector::Options o;
    o.core_workers = 2;
    runners.push_back(std::make_unique<pintd::PintDetector>(o));
  }
  {
    cracer::CracerDetector::Options o;
    o.workers = 2;
    runners.push_back(std::make_unique<cracer::CracerDetector>(o));
  }
  runners.push_back(std::make_unique<oracle::OracleDetector>());

  for (auto& r : runners) {
    const detect::RunResult rr = r->run([] { run_workload(); });
    EXPECT_TRUE(rr.ok()) << r->name() << ": " << rr.status_name();
    EXPECT_FALSE(rr.degraded_sequential_history) << r->name();
    EXPECT_EQ(r->reporter().distinct_races(), 0u) << r->name();
    EXPECT_GT(r->stats().total_ns.load(), 0u) << r->name();
    EXPECT_NE(r->name(), nullptr);
  }
}

TEST(RunnerSeam, SharedOptionsReachEveryDetector) {
  // CommonOptions fields must flow through each Options subclass unchanged.
  stint::StintDetector::Options so;
  so.coalesce = false;
  so.seed = 99;
  EXPECT_FALSE(static_cast<detect::CommonOptions&>(so).coalesce);
  pintd::PintDetector::Options po;
  po.seed = 77;
  EXPECT_EQ(static_cast<detect::CommonOptions&>(po).seed, 77u);
  cracer::CracerDetector::Options co;
  co.verbose_races = true;
  EXPECT_TRUE(static_cast<detect::CommonOptions&>(co).verbose_races);
  oracle::OracleDetector::Options oo;
  oo.stack_bytes = std::size_t(1) << 20;
  EXPECT_EQ(static_cast<detect::CommonOptions&>(oo).stack_bytes,
            std::size_t(1) << 20);
}

}  // namespace
}  // namespace pint::test
