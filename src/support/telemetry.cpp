#include "support/telemetry.hpp"

#if PINT_TELEMETRY_ENABLED

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <memory>
#include <mutex>

#include "support/timer.hpp"

namespace pint::telem {

namespace detail {
std::atomic<bool> g_on{false};
std::uint64_t ts_now() { return now_ns(); }
}  // namespace detail

namespace {

constexpr std::size_t kMinRing = std::size_t(1) << 10;
constexpr std::size_t kMaxRing = std::size_t(1) << 24;
constexpr std::size_t kDefaultRing = std::size_t(1) << 16;
// Distinct span/count names per thread.  The pipeline's sites use ~a dozen,
// and the thread that ends a STINT or PINT run adds the Stats table's
// counters (detect/stats.hpp); 48 holds both.  The table is fixed-size so
// hot-path lookup is a short pointer scan.
constexpr int kMaxNames = 48;

struct Event {
  std::uint64_t ts;
  const char* name;
  std::uint64_t value;
  EventKind kind;
};

struct NamedTotal {
  const char* name;
  std::uint64_t count;
  std::uint64_t total;
};

/// One thread's recording state.  Single-writer (the owning thread); readers
/// (export, totals) run at quiescence under the registry lock.
struct ThreadBuf {
  std::vector<Event> ring;
  std::uint64_t n = 0;  // events ever written; ring slot = n % ring.size()
  NamedTotal spans[kMaxNames];
  int nspans = 0;
  NamedTotal counts[kMaxNames];
  int ncounts = 0;
  /// Stable storage for copied strings (roles, gauge names).  deque: the
  /// c_str() pointers survive growth.
  std::deque<std::string> strings;
  /// (event index, role) transitions - kept outside the ring so track
  /// attribution survives wrap-around.
  std::vector<std::pair<std::uint64_t, const char*>> role_log;
  int seq = 0;
  std::atomic<bool> released{false};

  void clear() {
    n = 0;
    nspans = ncounts = 0;
    strings.clear();
    role_log.clear();
  }

  const char* store(const char* s) {
    for (const auto& t : strings) {
      if (t == s) return t.c_str();
    }
    strings.emplace_back(s);
    return strings.back().c_str();
  }

  void push(std::uint64_t ts, const char* name, std::uint64_t v, EventKind k) {
    ring[std::size_t(n % ring.size())] = {ts, name, v, k};
    ++n;
  }

  NamedTotal* tot(NamedTotal* arr, int& na, const char* name) {
    for (int i = 0; i < na; ++i) {
      if (arr[i].name == name) return &arr[i];
    }
    if (na == kMaxNames) return nullptr;  // overflow names lose their totals
    arr[na] = {name, 0, 0};
    return &arr[na++];
  }

  std::size_t retained() const { return std::size_t(std::min<std::uint64_t>(n, ring.size())); }
  std::uint64_t first_index() const { return n - retained(); }
  const Event& at(std::uint64_t abs_index) const {
    return ring[std::size_t(abs_index % ring.size())];
  }
  const char* role_at(std::uint64_t abs_index) const {
    const char* r = nullptr;
    for (const auto& [idx, role] : role_log) {
      if (idx > abs_index) break;
      r = role;
    }
    return r;
  }
};

std::mutex g_reg_mu;
std::vector<std::unique_ptr<ThreadBuf>> g_bufs;
std::vector<ThreadBuf*> g_free;
int g_next_seq = 0;
std::size_t g_ring_cap = 0;  // 0 = not resolved yet

std::size_t ring_cap_locked() {
  if (g_ring_cap == 0) {
    std::size_t cap = kDefaultRing;
    if (const char* e = std::getenv("PINT_TELEMETRY_EVENTS")) {
      const long long v = std::atoll(e);
      if (v > 0) cap = std::size_t(v);
    }
    g_ring_cap = std::clamp(cap, kMinRing, kMaxRing);
  }
  return g_ring_cap;
}

/// Marks the buffer reusable when its thread exits; reset() recycles it.
struct TlHolder {
  ThreadBuf* buf = nullptr;
  ~TlHolder() {
    if (buf != nullptr) buf->released.store(true, std::memory_order_release);
  }
};
thread_local TlHolder tl_holder;

ThreadBuf* tl_buf() {
  ThreadBuf* b = tl_holder.buf;
  if (b != nullptr) return b;
  std::lock_guard<std::mutex> g(g_reg_mu);
  if (!g_free.empty()) {
    b = g_free.back();
    g_free.pop_back();
    b->released.store(false, std::memory_order_relaxed);
  } else {
    g_bufs.push_back(std::make_unique<ThreadBuf>());
    b = g_bufs.back().get();
    b->ring.resize(ring_cap_locked());
  }
  b->seq = g_next_seq++;
  tl_holder.buf = b;
  return b;
}

void json_escape(std::string* out, const char* s) {
  for (; *s != '\0'; ++s) {
    const unsigned char c = (unsigned char)*s;
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(char(c));
    } else if (c < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof(esc), "\\u%04x", c);
      out->append(esc);
    } else {
      out->push_back(char(c));
    }
  }
}

std::string escaped(const char* s) {
  std::string out;
  json_escape(&out, s);
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------------

void set_enabled(bool on) {
  detail::g_on.store(on, std::memory_order_release);
}

void set_ring_capacity(std::size_t events) {
  std::lock_guard<std::mutex> g(g_reg_mu);
  g_ring_cap = std::clamp(events, kMinRing, kMaxRing);
}

void reset() {
  std::lock_guard<std::mutex> g(g_reg_mu);
  g_free.clear();
  for (auto& b : g_bufs) {
    b->clear();
    // Re-apply the current capacity so a set_ring_capacity() between runs
    // takes effect for live threads too, not only newly created buffers.
    if (b->ring.size() != ring_cap_locked()) b->ring.resize(ring_cap_locked());
    if (b->released.load(std::memory_order_acquire)) g_free.push_back(b.get());
  }
}

void set_thread_role(const char* role) {
  if (!enabled()) return;
  ThreadBuf* b = tl_buf();
  b->role_log.emplace_back(b->n, b->store(role));
}

void count(const char* name, std::uint64_t delta) {
  if (!enabled()) return;
  ThreadBuf* b = tl_buf();
  std::uint64_t running = delta;
  if (NamedTotal* t = b->tot(b->counts, b->ncounts, name)) {
    t->count += 1;
    t->total += delta;
    running = t->total;
  }
  b->push(now_ns(), name, running, EventKind::kCount);
}

void gauge(const char* name, std::uint64_t value) {
  if (!enabled()) return;
  ThreadBuf* b = tl_buf();
  b->push(now_ns(), b->store(name), value, EventKind::kGauge);
}

namespace detail {

void span_begin(const char* name, std::uint64_t t0_ns) {
  tl_buf()->push(t0_ns, name, 0, EventKind::kBegin);
}

void span_end(const char* name, std::uint64_t t0_ns) {
  // The ScopedSpan captured enabled() at construction; recording the end
  // even if telemetry was disabled mid-span keeps every begin balanced.
  const std::uint64_t t1 = now_ns();
  const std::uint64_t dur = t1 >= t0_ns ? t1 - t0_ns : 0;
  ThreadBuf* b = tl_buf();
  if (NamedTotal* t = b->tot(b->spans, b->nspans, name)) {
    t->count += 1;
    t->total += dur;
  }
  b->push(t1, name, dur, EventKind::kEnd);
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Sampler
// ---------------------------------------------------------------------------

struct Sampler::Waiter {
  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;
};

void Sampler::start(Probe probe, const Options& opt) {
  if (!enabled() || thread_.joinable()) return;
  waiter_ = new Waiter();
  Waiter* w = waiter_;
  const std::uint32_t period_us = opt.period_us == 0 ? 200 : opt.period_us;
  const char* role = opt.role;
  thread_ = std::thread([w, probe = std::move(probe), period_us, role] {
    set_thread_role(role);
    Sink sink;
    for (;;) {
      probe(sink);
      std::unique_lock<std::mutex> lk(w->mu);
      if (w->cv.wait_for(lk, std::chrono::microseconds(period_us),
                         [w] { return w->stop; })) {
        break;
      }
    }
    probe(sink);  // final sample: the series covers the run's end state
  });
}

void Sampler::stop() {
  if (thread_.joinable()) {
    {
      std::lock_guard<std::mutex> g(waiter_->mu);
      waiter_->stop = true;
    }
    waiter_->cv.notify_all();
    thread_.join();
  }
  delete waiter_;
  waiter_ = nullptr;
}

// ---------------------------------------------------------------------------
// Aggregates / introspection
// ---------------------------------------------------------------------------

namespace {

std::vector<Total> merge_totals(bool spans) {
  std::lock_guard<std::mutex> g(g_reg_mu);
  std::map<std::string, Total> merged;
  for (const auto& b : g_bufs) {
    const NamedTotal* arr = spans ? b->spans : b->counts;
    const int na = spans ? b->nspans : b->ncounts;
    for (int i = 0; i < na; ++i) {
      Total& t = merged[arr[i].name];
      t.name = arr[i].name;
      t.count += arr[i].count;
      t.total += arr[i].total;
    }
  }
  std::vector<Total> out;
  out.reserve(merged.size());
  for (auto& [_, t] : merged) out.push_back(std::move(t));
  return out;
}

}  // namespace

std::vector<Total> span_totals() { return merge_totals(/*spans=*/true); }
std::vector<Total> counter_totals() { return merge_totals(/*spans=*/false); }

std::uint64_t dropped_events() {
  std::lock_guard<std::mutex> g(g_reg_mu);
  std::uint64_t dropped = 0;
  for (const auto& b : g_bufs) {
    if (b->n > b->ring.size()) dropped += b->n - b->ring.size();
  }
  return dropped;
}

std::vector<EventRec> snapshot_events() {
  std::lock_guard<std::mutex> g(g_reg_mu);
  std::vector<EventRec> out;
  for (const auto& b : g_bufs) {
    char fallback[24];
    std::snprintf(fallback, sizeof(fallback), "thread-%d", b->seq);
    for (std::uint64_t i = b->first_index(); i < b->n; ++i) {
      const Event& e = b->at(i);
      const char* role = b->role_at(i);
      EventRec r;
      r.ts_ns = e.ts;
      r.track = role != nullptr ? role : fallback;
      r.name = e.name;
      r.value = e.value;
      r.kind = e.kind;
      out.push_back(std::move(r));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Export
// ---------------------------------------------------------------------------

bool write_chrome_trace(const std::string& path) {
  std::lock_guard<std::mutex> g(g_reg_mu);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;

  // Pass 1: the earliest retained timestamp anchors ts=0 in the export.
  std::uint64_t base_ts = ~std::uint64_t(0);
  for (const auto& b : g_bufs) {
    for (std::uint64_t i = b->first_index(); i < b->n; ++i) {
      base_ts = std::min(base_ts, b->at(i).ts);
    }
  }
  if (base_ts == ~std::uint64_t(0)) base_ts = 0;

  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  bool first = true;
  auto sep = [&] {
    if (!first) std::fputs(",\n", f);
    first = false;
  };
  auto us = [&](std::uint64_t ts) { return double(ts - base_ts) / 1000.0; };

  // One Chrome "thread" (tid) per (recording thread, role): a thread that
  // changes roles across the run - the phased one-core mode - appears as one
  // track per role.
  std::map<std::pair<int, std::string>, int> tids;
  int next_tid = 1;
  auto tid_for = [&](const ThreadBuf& b, const char* role,
                     const char* fallback) {
    const char* track = role != nullptr ? role : fallback;
    auto [it, inserted] = tids.insert({{b.seq, track}, next_tid});
    if (inserted) {
      ++next_tid;
      sep();
      std::fprintf(f,
                   "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                   "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
                   it->second, escaped(track).c_str());
    }
    return it->second;
  };

  for (const auto& b : g_bufs) {
    char fallback[24];
    std::snprintf(fallback, sizeof(fallback), "thread-%d", b->seq);
    // Wrap repair: an end whose begin was overwritten is dropped; a begin
    // still open when the track ends (or the thread switches role) gets a
    // synthesized end, so every exported track is balanced.
    std::vector<std::pair<const char*, int>> open;  // (name, tid)
    int cur_tid = -1;
    std::uint64_t last_ts = base_ts;
    const char* cur_role = nullptr;
    auto close_open = [&](std::uint64_t at_ts) {
      while (!open.empty()) {
        sep();
        std::fprintf(f,
                     "{\"name\":\"%s\",\"ph\":\"E\",\"pid\":1,\"tid\":%d,"
                     "\"ts\":%.3f}",
                     escaped(open.back().first).c_str(), open.back().second,
                     us(at_ts));
        open.pop_back();
      }
    };
    for (std::uint64_t i = b->first_index(); i < b->n; ++i) {
      const Event& e = b->at(i);
      const char* role = b->role_at(i);
      if (role != cur_role || cur_tid < 0) {
        close_open(e.ts);  // spans never straddle a role change
        cur_role = role;
        cur_tid = tid_for(*b, role, fallback);
      }
      last_ts = e.ts;
      switch (e.kind) {
        case EventKind::kBegin:
          sep();
          std::fprintf(f,
                       "{\"name\":\"%s\",\"ph\":\"B\",\"pid\":1,\"tid\":%d,"
                       "\"ts\":%.3f}",
                       escaped(e.name).c_str(), cur_tid, us(e.ts));
          open.push_back({e.name, cur_tid});
          break;
        case EventKind::kEnd:
          if (!open.empty()) {
            sep();
            std::fprintf(f,
                         "{\"name\":\"%s\",\"ph\":\"E\",\"pid\":1,\"tid\":%d,"
                         "\"ts\":%.3f}",
                         escaped(open.back().first).c_str(), open.back().second,
                         us(e.ts));
            open.pop_back();
          }
          break;
        case EventKind::kCount:
        case EventKind::kGauge:
          sep();
          std::fprintf(f,
                       "{\"name\":\"%s\",\"ph\":\"C\",\"pid\":1,\"tid\":%d,"
                       "\"ts\":%.3f,\"args\":{\"value\":%llu}}",
                       escaped(e.name).c_str(), cur_tid, us(e.ts),
                       (unsigned long long)e.value);
          break;
        case EventKind::kRole:
          break;  // roles are carried by role_log, never by ring events
      }
    }
    close_open(last_ts);
  }
  std::fputs("\n]}\n", f);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

bool write_metrics_json(
    const std::string& path,
    const std::vector<std::pair<std::string, std::uint64_t>>& extra) {
  // Aggregates first (they take the registry lock themselves).
  const std::vector<Total> spans = span_totals();
  const std::vector<Total> counters = counter_totals();
  const std::uint64_t dropped = dropped_events();

  struct Series {
    std::uint64_t samples = 0;
    std::uint64_t min = ~std::uint64_t(0);
    std::uint64_t max = 0;
    std::uint64_t last = 0;
    std::uint64_t last_ts = 0;
  };
  std::map<std::string, Series> series;
  std::size_t threads = 0;
  std::uint64_t retained = 0;
  {
    std::lock_guard<std::mutex> g(g_reg_mu);
    threads = g_bufs.size();
    for (const auto& b : g_bufs) {
      retained += b->retained();
      for (std::uint64_t i = b->first_index(); i < b->n; ++i) {
        const Event& e = b->at(i);
        if (e.kind != EventKind::kGauge) continue;
        Series& s = series[e.name];
        s.samples += 1;
        s.min = std::min(s.min, e.value);
        s.max = std::max(s.max, e.value);
        if (e.ts >= s.last_ts) {
          s.last_ts = e.ts;
          s.last = e.value;
        }
      }
    }
  }

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\n  \"spans\": {", f);
  bool first = true;
  for (const Total& t : spans) {
    std::fprintf(f, "%s\n    \"%s\": {\"count\": %llu, \"total_ns\": %llu}",
                 first ? "" : ",", escaped(t.name.c_str()).c_str(),
                 (unsigned long long)t.count, (unsigned long long)t.total);
    first = false;
  }
  std::fputs("\n  },\n  \"counters\": {", f);
  first = true;
  for (const Total& t : counters) {
    std::fprintf(f, "%s\n    \"%s\": %llu", first ? "" : ",",
                 escaped(t.name.c_str()).c_str(),
                 (unsigned long long)t.total);
    first = false;
  }
  std::fputs("\n  },\n  \"series\": {", f);
  first = true;
  for (const auto& [name, s] : series) {
    std::fprintf(f,
                 "%s\n    \"%s\": {\"samples\": %llu, \"min\": %llu, "
                 "\"max\": %llu, \"last\": %llu}",
                 first ? "" : ",", escaped(name.c_str()).c_str(),
                 (unsigned long long)s.samples, (unsigned long long)s.min,
                 (unsigned long long)s.max, (unsigned long long)s.last);
    first = false;
  }
  std::fputs("\n  },\n  \"stats\": {", f);
  first = true;
  for (const auto& [key, value] : extra) {
    std::fprintf(f, "%s\n    \"%s\": %llu", first ? "" : ",",
                 escaped(key.c_str()).c_str(), (unsigned long long)value);
    first = false;
  }
  std::fprintf(f,
               "\n  },\n  \"telemetry\": {\"threads\": %zu, "
               "\"events_retained\": %llu, \"events_dropped\": %llu}\n}\n",
               threads, (unsigned long long)retained,
               (unsigned long long)dropped);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

}  // namespace pint::telem

#endif  // PINT_TELEMETRY_ENABLED
