// Quickstart: write a tiny fork-join program, seed a determinacy race, and
// let PINT find it.
//
//   $ ./quickstart
//
// The program computes a parallel sum twice: once with correct partitioning
// (no race) and once with an off-by-one overlap between the halves (a
// write-write race PINT reports).

#include <cstdio>
#include <vector>

#include "pint_api.hpp"

namespace {

/// Sums v[lo, hi) into *out, splitting recursively. `shared_acc` makes both
/// halves accumulate into the SAME variable - the classic reduction bug: two
/// logically parallel strands write one memory location.
void sum_range(const std::vector<long>& v, std::size_t lo, std::size_t hi,
               long* out, bool shared_acc) {
  if (hi - lo <= 256) {
    long t = 0;
    pint::record_read(&v[lo], (hi - lo) * sizeof(long));
    for (std::size_t i = lo; i < hi; ++i) t += v[i];
    pint::record_read(out, sizeof(long));
    pint::record_write(out, sizeof(long));
    *out += t;
    return;
  }
  const std::size_t mid = lo + (hi - lo) / 2;
  long left = 0, right = 0;
  pint::rt::SpawnScope sc;
  sc.spawn("sum-left-half", [&, lo, mid] { sum_range(v, lo, mid, &left, shared_acc); });
  sum_range(v, mid, hi, shared_acc ? &left : &right, shared_acc);
  sc.sync();
  pint::record_read(&left, sizeof(long));
  pint::record_read(&right, sizeof(long));
  pint::record_write(out, sizeof(long));
  *out += shared_acc ? left : left + right;
}

long run_detected(const std::vector<long>& v, bool shared_acc, bool* racy) {
  pint::pintd::PintDetector::Options opt;
  opt.core_workers = 2;  // plus the two history workers
  pint::pintd::PintDetector det(opt);
  long total = 0;
  det.run([&] { sum_range(v, 0, v.size(), &total, shared_acc); });
  *racy = det.reporter().any();
  std::printf("  strands=%llu  intervals=%llu  races=%llu\n",
              (unsigned long long)det.stats().strands.load(),
              (unsigned long long)(det.stats().read_intervals.load() +
                                   det.stats().write_intervals.load()),
              (unsigned long long)det.reporter().distinct_races());
  for (const auto& rec : det.reporter().records()) {
    if (rec.prev_tag == nullptr && rec.cur_tag == nullptr) continue;
    std::printf("  e.g. task '%s' (%s) races with task '%s' (%s)\n",
                rec.prev_tag ? rec.prev_tag : "<main>",
                rec.prev_write ? "write" : "read",
                rec.cur_tag ? rec.cur_tag : "<main>",
                rec.cur_write ? "write" : "read");
    break;
  }
  return total;
}

}  // namespace

int main() {
  std::vector<long> v(1 << 16);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = long(i % 7) - 3;

  std::printf("correct partitioning:\n");
  bool racy = false;
  const long ok = run_detected(v, /*shared_acc=*/false, &racy);
  std::printf("  sum=%ld, race reported: %s\n\n", ok, racy ? "YES" : "no");
  if (racy) return 1;  // a false positive would be a bug

  std::printf("shared accumulator (seeded bug):\n");
  const long bad = run_detected(v, /*shared_acc=*/true, &racy);
  std::printf("  sum=%ld, race reported: %s\n", bad, racy ? "YES" : "no");
  return racy ? 0 : 1;  // the race must be caught
}
