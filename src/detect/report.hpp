#pragma once

// Race reporting: thread-safe, deduplicated by strand pair and access
// kinds.
//
// Per the paper's guarantee (Theorem 5), a detector must report *a* race
// between a pair of strands iff a race exists; the exact set of reported
// pairs may differ between detectors and schedules.  Tests therefore check
// (a) the any-race boolean and (b) that every reported pair is a true racing
// pair per the oracle.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <utility>
#include <vector>

#include "detect/types.hpp"
#include "support/spinlock.hpp"

namespace pint::detect {

struct RaceRecord {
  std::uint64_t prev_sid = 0;  // strand already in the access history
  std::uint64_t cur_sid = 0;   // strand whose access triggered the report
  bool prev_write = false;
  bool cur_write = false;
  addr_t lo = 0;
  addr_t hi = 0;
  const char* prev_tag = nullptr;  // task names from named spawns, if any
  const char* cur_tag = nullptr;
};

class RaceReporter {
 public:
  explicit RaceReporter(std::size_t max_records = 256)
      : max_records_(max_records) {}

  void report(std::uint64_t prev_sid, bool prev_write, std::uint64_t cur_sid,
              bool cur_write, addr_t lo, addr_t hi,
              const char* prev_tag = nullptr, const char* cur_tag = nullptr) {
    raw_reports_.fetch_add(1, std::memory_order_relaxed);
    LockGuard<Spinlock> g(mu_);
    if (!dedup_.insert(prev_sid, cur_sid, prev_write, cur_write)) return;
    distinct_.fetch_add(1, std::memory_order_relaxed);
    if (records_.size() < max_records_) {
      records_.push_back({prev_sid, cur_sid, prev_write, cur_write, lo, hi,
                          prev_tag, cur_tag});
    } else {
      // Counting continues above; make the record truncation itself
      // observable instead of silently capping the detail a caller sees.
      dropped_.fetch_add(1, std::memory_order_relaxed);
    }
    if (verbose_) {
      std::fprintf(stderr,
                   "RACE: strand %llu '%s' (%s) with strand %llu '%s' (%s) on "
                   "[0x%llx, 0x%llx]\n",
                   (unsigned long long)prev_sid,
                   prev_tag ? prev_tag : "<unnamed>",
                   prev_write ? "write" : "read", (unsigned long long)cur_sid,
                   cur_tag ? cur_tag : "<unnamed>",
                   cur_write ? "write" : "read", (unsigned long long)lo,
                   (unsigned long long)hi);
    }
  }

  bool any() const { return distinct_.load(std::memory_order_acquire) != 0; }
  std::uint64_t distinct_races() const {
    return distinct_.load(std::memory_order_acquire);
  }
  std::uint64_t raw_reports() const {
    return raw_reports_.load(std::memory_order_acquire);
  }
  /// Distinct races whose detail record was shed once max_records was hit
  /// (distinct_races() keeps counting; records() holds the first
  /// max_records of them).
  std::uint64_t dropped_records() const {
    return dropped_.load(std::memory_order_acquire);
  }
  std::vector<RaceRecord> records() const {
    LockGuard<Spinlock> g(mu_);
    return records_;
  }
  void set_verbose(bool v) { verbose_ = v; }
  void clear() {
    LockGuard<Spinlock> g(mu_);
    records_.clear();
    dedup_.clear();
    distinct_.store(0);
    raw_reports_.store(0);
    dropped_.store(0);
  }

 private:
  /// The set of reported races, keyed exactly on (smaller sid, larger sid,
  /// prev kind, cur kind): symmetric in the pair, keeping the kind bits as
  /// reported.  Open addressing over a power-of-two table of 16-byte
  /// entries, at most half full, grown by rehashing; no per-race node.
  class PairSet {
   public:
    /// Inserts the race; false when it was already present.
    bool insert(std::uint64_t a, std::uint64_t b, bool aw, bool bw) {
      if (a > b) std::swap(a, b);
      // b << 3 | kinds | 1: never 0, the empty slot (sids stay below 2^61).
      const Entry e{a, (b << 3) | (std::uint64_t(aw) << 2) |
                           (std::uint64_t(bw) << 1) | 1u};
      if (2 * (size_ + 1) > slots_.size()) grow();
      Entry* at = find(e);
      if (at->tagged_hi != 0) return false;
      *at = e;
      ++size_;
      return true;
    }
    void clear() {
      slots_.clear();
      size_ = 0;
    }

   private:
    struct Entry {
      std::uint64_t lo = 0;
      std::uint64_t tagged_hi = 0;  // 0 = empty
    };

    // The slot holding `e`, or the empty slot where it belongs.
    Entry* find(const Entry& e) {
      const std::size_t mask = slots_.size() - 1;
      std::uint64_t h = (e.lo ^ (e.tagged_hi * 0x9e3779b97f4a7c15ULL)) *
                        0xbf58476d1ce4e5b9ULL;
      std::size_t i = std::size_t(h >> 32) & mask;
      while (slots_[i].tagged_hi != 0 &&
             (slots_[i].lo != e.lo || slots_[i].tagged_hi != e.tagged_hi)) {
        i = (i + 1) & mask;
      }
      return &slots_[i];
    }
    void grow() {
      std::vector<Entry> old(slots_.empty() ? 64 : 2 * slots_.size());
      old.swap(slots_);
      for (const Entry& e : old) {
        if (e.tagged_hi != 0) *find(e) = e;
      }
    }

    std::vector<Entry> slots_;
    std::size_t size_ = 0;
  };

  const std::size_t max_records_;
  mutable Spinlock mu_;
  PairSet dedup_;
  std::vector<RaceRecord> records_;
  std::atomic<std::uint64_t> distinct_{0};
  std::atomic<std::uint64_t> raw_reports_{0};
  std::atomic<std::uint64_t> dropped_{0};
  bool verbose_ = false;
};

}  // namespace pint::detect
