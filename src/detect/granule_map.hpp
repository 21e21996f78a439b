#pragma once

// Per-granule hashmap access history - the conventional design the paper
// contrasts with the interval treap, packaged with the SAME role semantics
// and payloads so it can stand in for any of PINT's or STINT's stores.
//
// One map instance plays exactly one role: last-writer, serial reader, or
// (ReaderGranuleMap) PINT's two-sided reader.  Payloads are accessor
// handles into the map's own store::AccessorTable, as in the stores. Like
// the stores it is strictly sequential - a single owner thread - so PINT's
// pipeline is unchanged and benchmarking "treap vs hashmap under an
// identical asynchronous pipeline" isolates the access-history data
// structure itself (ablation_history).
//
// Storage: open-addressing table from 8-byte granule to the payload,
// growing by rehash at 70% load. Interval operations iterate the granules of
// the range, which is precisely the per-location cost profile the paper's
// interval coalescing is designed to avoid.

#include <cstdint>
#include <memory>
#include <vector>

#include "support/assert.hpp"
#include "store/interval_store.hpp"

namespace pint::detect {

template <class P>
class BasicGranuleMap {
 public:
  using Payload = P;
  static constexpr std::uint64_t kGranuleBytes = 8;
  static constexpr std::size_t kSlots = sizeof(P) / sizeof(store::Handle);

  /// Minimum slot count: capacities below it (notably 0, whose mask would
  /// underflow to all-ones over an empty table) are rounded up to it.
  static constexpr std::size_t kMinCapacity = 16;

  explicit BasicGranuleMap(std::size_t capacity_pow2 = 1 << 12)
      : mask_(normalized(capacity_pow2) - 1), slots_(mask_ + 1) {
    const std::size_t cap = mask_ + 1;
    PINT_CHECK_MSG((cap & (cap - 1)) == 0, "capacity must be a power of 2");
  }

  /// The handle of `a` in this map's table (store::AccessorTable::intern).
  store::Handle intern(const store::Accessor& a) {
    return table_.intern(a, live_ * kSlots, [this](auto&& fn) {
      for (Slot& s : slots_) {
        if (s.occupied) store::for_each_handle(s.who, fn);
      }
    });
  }
  const store::AccessorTable& table() const { return table_; }

  /// cb(granule_lo, granule_hi, payload) for every granule of [lo, hi]
  /// with a recorded accessor. Bounds reported at granule granularity.
  template <class F>
  void query(store::addr_t lo, store::addr_t hi, F&& cb) const {
    std::uint64_t glo = lo / kGranuleBytes;
    std::uint64_t ghi = hi / kGranuleBytes;
    if (min_key_ > max_key_) return;
    if (glo < min_key_) glo = min_key_;
    if (ghi > max_key_) ghi = max_key_;
    for (std::uint64_t g = glo; g <= ghi; ++g) {
      const Slot* s = find(g);
      if (s != nullptr) {
        cb(g * kGranuleBytes, g * kGranuleBytes + kGranuleBytes - 1, s->who);
      }
    }
  }

  /// Last-writer semantics: report previous owners, then overwrite.
  template <class F>
  void insert_writer(store::addr_t lo, store::addr_t hi, const P& a,
                     F&& cb) {
    for (std::uint64_t g = lo / kGranuleBytes; g <= hi / kGranuleBytes; ++g) {
      Slot* s = find_or_insert(g);
      if (s->occupied) {
        cb(g * kGranuleBytes, g * kGranuleBytes + kGranuleBytes - 1, s->who);
      }
      s->who = a;
      s->occupied = true;
    }
  }

  /// Reader semantics: per granule, resolve(prev, a) returns the payload
  /// that replaces prev; an empty granule takes `a`.
  template <class R>
  void insert_reader(store::addr_t lo, store::addr_t hi, const P& a,
                     R&& resolve) {
    for (std::uint64_t g = lo / kGranuleBytes; g <= hi / kGranuleBytes; ++g) {
      Slot* s = find_or_insert(g);
      s->who = s->occupied ? resolve(s->who, a) : a;
      s->occupied = true;
    }
  }

  // --- Bulk sorted-run shims (uniform History interface, DESIGN.md §10) ---
  //
  // A per-granule map has no cross-interval structure to exploit, so the
  // run flavors just loop - but exposing them keeps the History template
  // interface uniform, letting process_*_treap use one code path for both
  // stores (and the ablation measure exactly the data-structure delta).

  template <class Iv, class F>
  void query_run(const Iv* iv, std::size_t k, F&& cb) const {
    for (std::size_t j = 0; j < k; ++j) query(iv[j].lo, iv[j].hi, cb);
  }

  template <class Iv, class F>
  void insert_writer_run(const Iv* iv, std::size_t k, const P& a, F&& cb) {
    for (std::size_t j = 0; j < k; ++j) insert_writer(iv[j].lo, iv[j].hi, a, cb);
  }

  template <class Iv, class R>
  void insert_reader_run(const Iv* iv, std::size_t k, const P& a,
                         R&& resolve) {
    for (std::size_t j = 0; j < k; ++j) {
      insert_reader(iv[j].lo, iv[j].hi, a, resolve);
    }
  }

  template <class Iv>
  void erase_run(const Iv* iv, std::size_t k) {
    for (std::size_t j = 0; j < k; ++j) erase_range(iv[j].lo, iv[j].hi);
  }

  void erase_range(store::addr_t lo, store::addr_t hi) {
    // Clamp to the granule range ever inserted: shadow stores skip unmapped
    // regions, so clearing a (huge) never-touched stack range must be cheap.
    std::uint64_t g = lo / kGranuleBytes;
    std::uint64_t gend = hi / kGranuleBytes;
    if (min_key_ > max_key_) return;  // empty map
    if (g < min_key_) g = min_key_;
    if (gend > max_key_) gend = max_key_;
    for (; g <= gend; ++g) {
      Slot* s = find_mutable(g);
      if (s != nullptr) {
        s->occupied = false;  // key stays: acts as a tombstone slot
        --live_;
      }
    }
  }

  std::size_t size() const { return live_; }
  std::size_t capacity() const { return mask_ + 1; }

 private:
  static std::size_t normalized(std::size_t capacity_pow2) {
    return capacity_pow2 < kMinCapacity ? kMinCapacity : capacity_pow2;
  }

  struct Slot {
    std::uint64_t key = 0;  // granule + 1; 0 = never used
    bool occupied = false;  // false with key != 0 = tombstone
    P who;
  };

  static std::size_t hash(std::uint64_t g) {
    std::uint64_t h = g * 0x9e3779b97f4a7c15ULL;
    return std::size_t(h ^ (h >> 31));
  }

  const Slot* find(std::uint64_t g) const {
    const std::uint64_t key = g + 1;
    std::size_t i = hash(g) & mask_;
    for (;;) {
      const Slot& s = slots_[i];
      if (s.key == key) return s.occupied ? &s : nullptr;
      if (s.key == 0) return nullptr;
      i = (i + 1) & mask_;
    }
  }
  Slot* find_mutable(std::uint64_t g) {
    return const_cast<Slot*>(
        static_cast<const BasicGranuleMap*>(this)->find(g));
  }

  Slot* find_or_insert(std::uint64_t g) {
    if ((filled_ + 1) * 10 >= capacity() * 7) grow();
    const std::uint64_t key = g + 1;
    std::size_t i = hash(g) & mask_;
    for (;;) {
      Slot& s = slots_[i];
      if (s.key == key) {
        if (!s.occupied) ++live_;  // will be revived by the caller
        return &s;
      }
      if (s.key == 0) {
        s.key = key;
        ++filled_;
        ++live_;
        s.occupied = false;
        if (g < min_key_) min_key_ = g;
        if (g > max_key_) max_key_ = g;
        return &s;
      }
      i = (i + 1) & mask_;
    }
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    mask_ = mask_ * 2 + 1;
    slots_.assign(mask_ + 1, Slot{});
    filled_ = 0;
    live_ = 0;
    for (const Slot& s : old) {
      if (s.key == 0 || !s.occupied) continue;
      std::size_t i = hash(s.key - 1) & mask_;
      while (slots_[i].key != 0) i = (i + 1) & mask_;
      slots_[i] = s;
      ++filled_;
      ++live_;
    }
  }

  std::size_t mask_;
  std::vector<Slot> slots_;
  std::size_t filled_ = 0;  // slots with a key (incl. tombstones)
  std::size_t live_ = 0;    // occupied slots
  std::uint64_t min_key_ = ~std::uint64_t(0);  // observed granule bounds
  std::uint64_t max_key_ = 0;
  store::AccessorTable table_;
};

using GranuleMap = BasicGranuleMap<store::Handle>;
using ReaderGranuleMap = BasicGranuleMap<store::ReaderPair>;

}  // namespace pint::detect
