// Microbenchmarks for the remaining substrates: the work-stealing deque, the
// access-history queue, and spawn/sync overhead.

#include <benchmark/benchmark.h>

#include <vector>

#include "detect/strand.hpp"
#include "pint/ah_queue.hpp"
#include "runtime/deque.hpp"
#include "runtime/scheduler.hpp"

using namespace pint;

namespace {

void BM_DequePushPop(benchmark::State& state) {
  rt::WsDeque d;
  auto* fake = reinterpret_cast<rt::TaskFrame*>(0x10);
  std::uint64_t n = 0;
  for (auto _ : state) {
    d.push(fake);
    benchmark::DoNotOptimize(d.pop());
    ++n;
  }
  state.SetItemsProcessed(std::int64_t(n));
}
BENCHMARK(BM_DequePushPop);

void BM_AhQueuePushReclaim(benchmark::State& state) {
  pintd::AhQueue q(1 << 10);
  std::vector<detect::Strand> strands(1 << 10);
  std::size_t i = 0;
  std::uint64_t n = 0;
  for (auto _ : state) {
    detect::Strand* s = &strands[i++ & ((1 << 10) - 1)];
    s->consumers.store(0, std::memory_order_relaxed);
    while (!q.try_push(s)) q.reclaim([](detect::Strand*) {});
    ++n;
  }
  state.SetItemsProcessed(std::int64_t(n));
}
BENCHMARK(BM_AhQueuePushReclaim);

void BM_SpawnSyncFib(benchmark::State& state) {
  struct Fib {
    static void go(int n, long* out) {
      if (n < 2) {
        *out = n;
        return;
      }
      long a = 0, b = 0;
      rt::SpawnScope sc;
      sc.spawn([&] { go(n - 1, &a); });
      go(n - 2, &b);
      sc.sync();
      *out = a + b;
    }
  };
  rt::Scheduler::Options so;
  so.workers = int(state.range(0));
  for (auto _ : state) {
    rt::Scheduler sched(so);
    long r = 0;
    sched.run([&] { Fib::go(20, &r); });
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SpawnSyncFib)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
