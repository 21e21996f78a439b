#pragma once

// Shadow memory for C-RACER: the conventional hashmap-based access history
// the paper compares against.
//
// Address space is covered at a fixed granule (8 bytes).  Each granule's
// shadow cell stores the classic triple for parallel SP race detection
// (Mellor-Crummey '91): last writer, left-most reader, right-most reader -
// each as {reachability label, strand id}.  Cells are located through a
// two-level scheme: an open-addressing page table from 4 KiB page keys to
// lazily-allocated shadow pages.  Page lookups are lock-free once a page
// exists; each cell carries its own spinlock byte for concurrent updates
// from parallel strands.

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "detect/lockset.hpp"
#include "detect/types.hpp"
#include "reach/depa.hpp"
#include "support/assert.hpp"
#include "support/spinlock.hpp"

namespace pint::cracer {

struct AccessorRec {
  reach::Engine::Label label;
  std::uint64_t sid = 0;        // 0 = empty
  const char* tag = nullptr;    // task name from named spawns, for reports
  detect::lockset_t lsid = 0;   // lockset held during this segment
};

struct ShadowCell {
  Spinlock lock;
  AccessorRec writer;
  AccessorRec lreader;
  AccessorRec rreader;
};

class ShadowMemory {
 public:
  static constexpr std::size_t kGranuleBytes = 8;
  static constexpr std::size_t kPageBytes = 4096;
  static constexpr std::size_t kCellsPerPage = kPageBytes / kGranuleBytes;

  explicit ShadowMemory(std::size_t table_pow2 = std::size_t(1) << 16)
      : mask_(table_pow2 - 1), table_(new Entry[table_pow2]) {
    PINT_CHECK_MSG((table_pow2 & mask_) == 0, "table size must be a power of 2");
  }
  ~ShadowMemory() {
    for (Page* p : pages_) delete p;
  }
  ShadowMemory(const ShadowMemory&) = delete;
  ShadowMemory& operator=(const ShadowMemory&) = delete;

  /// Invokes fn(cell) for every granule cell covering [lo, hi], allocating
  /// shadow pages on demand. The callback runs WITHOUT the cell lock; take
  /// it inside.
  template <class F>
  void for_cells(detect::addr_t lo, detect::addr_t hi, F&& fn) {
    detect::addr_t g = lo / kGranuleBytes;
    const detect::addr_t gend = hi / kGranuleBytes;
    Page* page = nullptr;
    detect::addr_t page_key = ~detect::addr_t(0);
    for (; g <= gend; ++g) {
      const detect::addr_t key = (g * kGranuleBytes) / kPageBytes;
      if (key != page_key) {
        page = lookup_or_create(key);
        page_key = key;
      }
      fn(page->cells[g % kCellsPerPage]);
    }
  }

  /// Clears (zeroes) every cell covering [lo, hi] in *existing* pages.
  void clear_range(detect::addr_t lo, detect::addr_t hi) {
    detect::addr_t g = lo / kGranuleBytes;
    const detect::addr_t gend = hi / kGranuleBytes;
    Page* page = nullptr;
    detect::addr_t page_key = ~detect::addr_t(0);
    for (; g <= gend; ++g) {
      const detect::addr_t key = (g * kGranuleBytes) / kPageBytes;
      if (key != page_key) {
        page = lookup(key);
        page_key = key;
      }
      if (page == nullptr) {
        // Skip to the next page boundary.
        g = (key + 1) * (kPageBytes / kGranuleBytes) - 1;
        continue;
      }
      ShadowCell& c = page->cells[g % kCellsPerPage];
      LockGuard<Spinlock> guard(c.lock);
      // sids are probed without the lock (detector fast paths): store them
      // atomically.
      c.writer.label = {};
      c.writer.lsid = 0;
      std::atomic_ref<std::uint64_t>(c.writer.sid).store(0, std::memory_order_relaxed);
      c.lreader.label = {};
      c.lreader.lsid = 0;
      std::atomic_ref<std::uint64_t>(c.lreader.sid).store(0, std::memory_order_relaxed);
      c.rreader.label = {};
      c.rreader.lsid = 0;
      std::atomic_ref<std::uint64_t>(c.rreader.sid).store(0, std::memory_order_relaxed);
    }
  }

  std::size_t pages_allocated() const {
    return page_count_.load(std::memory_order_relaxed);
  }

 private:
  struct Page {
    ShadowCell cells[kCellsPerPage];
  };
  struct Entry {
    std::atomic<detect::addr_t> key{0};  // page key + 1 (0 = empty)
    std::atomic<Page*> page{nullptr};
  };

  Page* lookup(detect::addr_t key) {
    const detect::addr_t stored = key + 1;
    std::size_t i = hash(key) & mask_;
    for (;;) {
      const detect::addr_t k = table_[i].key.load(std::memory_order_acquire);
      if (k == stored) {
        Page* p = table_[i].page.load(std::memory_order_acquire);
        if (p != nullptr) return p;  // fully published
        // Another thread is mid-install; treat as present and spin briefly.
        Backoff bo;
        while ((p = table_[i].page.load(std::memory_order_acquire)) == nullptr)
          bo.pause();
        return p;
      }
      if (k == 0) return nullptr;
      i = (i + 1) & mask_;
    }
  }

  Page* lookup_or_create(detect::addr_t key) {
    const detect::addr_t stored = key + 1;
    std::size_t i = hash(key) & mask_;
    std::size_t probes = 0;
    for (;;) {
      detect::addr_t k = table_[i].key.load(std::memory_order_acquire);
      if (k == stored) {
        Page* p = table_[i].page.load(std::memory_order_acquire);
        if (p != nullptr) return p;
        Backoff bo;
        while ((p = table_[i].page.load(std::memory_order_acquire)) == nullptr)
          bo.pause();
        return p;
      }
      if (k == 0) {
        detect::addr_t expected = 0;
        if (table_[i].key.compare_exchange_strong(expected, stored,
                                                  std::memory_order_acq_rel)) {
          Page* p = new Page();
          {
            LockGuard<Spinlock> g(pages_mu_);
            pages_.push_back(p);
          }
          page_count_.fetch_add(1, std::memory_order_relaxed);
          table_[i].page.store(p, std::memory_order_release);
          return p;
        }
        continue;  // someone claimed the slot; re-read it
      }
      i = (i + 1) & mask_;
      PINT_CHECK_MSG(++probes <= mask_, "shadow page table full");
    }
  }

  static std::size_t hash(detect::addr_t key) {
    std::uint64_t h = key * 0x9e3779b97f4a7c15ULL;
    return std::size_t(h ^ (h >> 29));
  }

  const std::size_t mask_;
  std::unique_ptr<Entry[]> table_;
  Spinlock pages_mu_;
  std::vector<Page*> pages_;
  std::atomic<std::size_t> page_count_{0};
};

}  // namespace pint::cracer
