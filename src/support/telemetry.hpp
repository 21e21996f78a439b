#pragma once

// Pipeline telemetry: span tracing, counters, and a background sampler
// (DESIGN.md §8 "Observability").
//
// Recording model
//   * Each recording thread owns a lock-free ring buffer of fixed-size
//     events; recording a span endpoint or counter sample is a bounds check
//     plus two stores into thread-local memory (no locks, no allocation on
//     the hot path once the buffer exists).  When the ring wraps, the oldest
//     events are overwritten - per-name accumulator totals survive the wrap,
//     so aggregate span times stay exact even when the raw stream does not.
//   * Tracks: each thread names its track with set_thread_role() ("core0",
//     "writer", "reader", ...).  A thread may change roles mid-run (the
//     phased one-core PINT mode runs core, writer, and reader phases on the
//     calling thread); the exported trace splits such a thread into one
//     track per role, which is what makes the Fig. 2 breakdown visible as
//     consecutive track segments.
//   * A `Sampler` runs a caller-supplied probe on its own thread at a fixed
//     cadence, turning monitoring-safe atomics (queue depth, cursor lag,
//     pool occupancy, heartbeat state) into a time series of gauge samples.
//
// Name lifetime: span and count() names must be string literals (the event
// stores the pointer).  gauge() and set_thread_role() copy the string, so
// dynamically built names ("shard3", per-lane lag gauges) are safe there.
//
// Control: recording is off by default; set_enabled(true) arms every site.
// enabled() is a single relaxed atomic load, so a disarmed site costs a
// load+branch.  Compiling with -DPINT_TELEMETRY=OFF (PINT_TELEMETRY_ENABLED
// == 0) replaces the whole API with inline no-ops: zero stores, zero
// branches, zero bytes of buffer.
//
// Export (quiescence only - no thread may be recording):
//   * write_chrome_trace(): Chrome trace-event JSON ("Trace Event Format"),
//     loadable in chrome://tracing and Perfetto.  One track per role.
//   * write_metrics_json(): flat aggregate JSON (span totals, counter
//     totals, gauge series summaries) merged with caller-supplied key/value
//     pairs (the harness passes the Stats snapshot).

#ifndef PINT_TELEMETRY_ENABLED
#define PINT_TELEMETRY_ENABLED 1
#endif

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace pint::telem {

enum class EventKind : std::uint8_t {
  kBegin,   // span opens on this thread
  kEnd,     // span closes (value = duration ns, for exact export)
  kCount,   // monotonically accumulated count (value = running per-thread total)
  kGauge,   // sampled instantaneous value
  kRole,    // thread renamed its track
};

/// Introspection view of one retained event (tests and exporters).
struct EventRec {
  std::uint64_t ts_ns = 0;
  std::string track;  // role active when the event was recorded
  std::string name;
  std::uint64_t value = 0;
  EventKind kind = EventKind::kBegin;
};

/// One aggregated span or counter, exact across ring wrap-around.
struct Total {
  std::string name;
  std::uint64_t count = 0;     // completed spans / count() calls
  std::uint64_t total = 0;     // spans: summed ns; counts: summed deltas
};

#if PINT_TELEMETRY_ENABLED

namespace detail {
extern std::atomic<bool> g_on;
void span_begin(const char* name, std::uint64_t t0_ns);
void span_end(const char* name, std::uint64_t t0_ns);
std::uint64_t ts_now();
}  // namespace detail

/// Single relaxed load: the cost of every disarmed recording site.
inline bool enabled() {
  return detail::g_on.load(std::memory_order_relaxed);
}

/// Arms/disarms recording.  Call at quiescence only (no concurrent
/// recorders); typically: reset(); set_enabled(true); <run>; set_enabled
/// (false); <export>.
void set_enabled(bool on);

/// Drops all retained events and totals and recycles buffers of exited
/// threads.  Quiescence only.
void reset();

/// Ring size (events per thread) for buffers created after this call; the
/// next reset() re-applies it to live threads' buffers too.  Clamped to a
/// sane range; also settable via $PINT_TELEMETRY_EVENTS.
void set_ring_capacity(std::size_t events);

/// Names the calling thread's track.  Copies `role`; safe for snprintf'd
/// names.  No-op while disabled.
void set_thread_role(const char* role);

/// Accumulating counter: bumps the per-thread total for `name` (a string
/// literal) and records the running total as a kCount event.
void count(const char* name, std::uint64_t delta = 1);

/// Instantaneous sample (kGauge event).  Copies `name`.
void gauge(const char* name, std::uint64_t value);

/// RAII span: records kBegin at construction and kEnd (with duration) at
/// destruction, and adds the duration to the per-thread span total.  `name`
/// must be a string literal.  Costs nothing beyond the enabled() check when
/// disarmed.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : name_(enabled() ? name : nullptr), t0_(0) {
    if (name_ != nullptr) {
      t0_ = detail::ts_now();
      detail::span_begin(name_, t0_);
    }
  }
  ~ScopedSpan() {
    if (name_ != nullptr) detail::span_end(name_, t0_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  std::uint64_t t0_;
};

/// Background gauge sampler: runs `probe` on its own thread (track `role`)
/// every `period_us` until stop(), plus one final sample on the way out so
/// the series covers run end.  start() is a no-op while telemetry is
/// disabled, so detectors wire it unconditionally.
class Sampler {
 public:
  struct Options {
    std::uint32_t period_us = 200;
    const char* role = "sampler";
  };
  /// Passed to the probe; forwards to gauge().  Exists so probes do not
  /// depend on free functions (and so a future exporter can intercept).
  class Sink {
   public:
    void gauge(const char* name, std::uint64_t value) {
      ::pint::telem::gauge(name, value);
    }
  };
  using Probe = std::function<void(Sink&)>;

  Sampler() = default;
  ~Sampler() { stop(); }
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  void start(Probe probe) { start(std::move(probe), Options()); }
  void start(Probe probe, const Options& opt);
  void stop();

 private:
  std::thread thread_;
  // stop() wakes the sleeper promptly via a flag + cv owned by the cpp.
  struct Waiter;
  Waiter* waiter_ = nullptr;
};

/// Writes Chrome trace-event JSON ("traceEvents" array, ts in microseconds,
/// thread_name metadata per track).  Returns false on I/O failure.
bool write_chrome_trace(const std::string& path);

/// Writes flat metrics JSON: {"spans": {...}, "counters": {...},
/// "series": {...}, "stats": {<extra>}, "telemetry": {...}}.
bool write_metrics_json(
    const std::string& path,
    const std::vector<std::pair<std::string, std::uint64_t>>& extra = {});

/// All retained events, oldest-first per thread, with resolved track names.
std::vector<EventRec> snapshot_events();
/// Aggregated per-name span totals (merged across threads; wrap-exact).
std::vector<Total> span_totals();
/// Aggregated per-name count() totals (merged across threads; wrap-exact).
std::vector<Total> counter_totals();
/// Events lost to ring wrap-around since the last reset().
std::uint64_t dropped_events();

#else  // !PINT_TELEMETRY_ENABLED ------------------------------------------
// The whole API compiles to nothing: no buffers, no atomics, no branches.

inline bool enabled() { return false; }
inline void set_enabled(bool) {}
inline void reset() {}
inline void set_ring_capacity(std::size_t) {}
inline void set_thread_role(const char*) {}
inline void count(const char*, std::uint64_t = 1) {}
inline void gauge(const char*, std::uint64_t) {}

class ScopedSpan {
 public:
  explicit ScopedSpan(const char*) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
};

class Sampler {
 public:
  struct Options {
    std::uint32_t period_us = 200;
    const char* role = "sampler";
  };
  class Sink {
   public:
    void gauge(const char*, std::uint64_t) {}
  };
  using Probe = std::function<void(Sink&)>;
  void start(Probe) {}
  void start(Probe, const Options&) {}
  void stop() {}
};

inline bool write_chrome_trace(const std::string&) { return false; }
inline bool write_metrics_json(
    const std::string&,
    const std::vector<std::pair<std::string, std::uint64_t>>& = {}) {
  return false;
}
inline std::vector<EventRec> snapshot_events() { return {}; }
inline std::vector<Total> span_totals() { return {}; }
inline std::vector<Total> counter_totals() { return {}; }
inline std::uint64_t dropped_events() { return 0; }

#endif  // PINT_TELEMETRY_ENABLED

}  // namespace pint::telem

// Statement-position helpers for literal-named spans/counts.  Expand to
// nothing (not even the enabled() load) under -DPINT_TELEMETRY=OFF.
#if PINT_TELEMETRY_ENABLED
#define PINT_TELEM_CAT2(a, b) a##b
#define PINT_TELEM_CAT(a, b) PINT_TELEM_CAT2(a, b)
#define PINT_TSPAN(name) \
  ::pint::telem::ScopedSpan PINT_TELEM_CAT(pint_tspan_, __LINE__)(name)
#define PINT_TCOUNT(name) ::pint::telem::count(name)
#else
#define PINT_TSPAN(name) ((void)0)
#define PINT_TCOUNT(name) ((void)0)
#endif
