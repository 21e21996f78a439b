#pragma once

// Park/wake for the PINT history lanes (DESIGN.md §6.6).
//
// An idle lane - the writer waiting for core strands, the reader or a shard
// waiting for queue entries - relax-spins briefly and then blocks in
// std::atomic<uint32_t>::wait on its stage's wake word.  A producer pays a
// notify only while some lane of the stage is parked, and only once per
// kWakeBatch items, so a parked lane wakes to a batch of work instead of to
// every strand.
//
// The two sides pair up Dekker-style on seq_cst fences:
//
//   lane:      e = word.load(acquire); parked.fetch_add(1); fence(seq_cst);
//              re-check the stage's input and its finish flags;
//              nothing there -> word.wait(e); parked.fetch_sub(1)
//   producer:  publish (release store); fence(seq_cst);
//              parked.load() != 0 -> word.fetch_add(1, release); notify_all
//
// Either the producer's load sees the parked count, or the lane's re-check
// sees the published input.  A producer that checks only every kWakeBatch
// items can therefore leave a lane asleep over at most one batch; finish
// events (core done, collection done, cancel) set their flag first and then
// wake() unconditionally, so no lane sleeps past the end of a run.  Nothing
// is published through these fences - the data a lane reads still travels
// through the queue's and the traces' release/acquire pairs - so the
// protocol only ever decides whether a lane sleeps, never what it sees.

#include <atomic>
#include <cstdint>

#include "support/spinlock.hpp"
#include "support/timer.hpp"

namespace pint::pintd {

/// Items a producer publishes between two checks of the parked count.
constexpr std::uint32_t kWakeBatch = 32;

/// Empty checks a lane relax-spins through before it parks: rounds of 1,
/// 2, 4 ... 32 pauses, a few microseconds in all.  Long enough to catch
/// work already on its way, far shorter than the ~9 us a core strand
/// takes, so an idle lane parks instead of burning a core.
constexpr int kRelaxRounds = 6;

inline void relax_round(int round) {
  for (int i = 0; i < (1 << round); ++i) cpu_relax();
}

class WakeWord {
 public:
  /// Lane: announces the park and returns the epoch to wait on.  The caller
  /// must re-check its input (and its finish flags) AFTER this call, then
  /// either wait(epoch) or cancel_park().
  std::uint32_t prepare_park() {
    const std::uint32_t e = word_.load(std::memory_order_acquire);
    parked_.fetch_add(1, std::memory_order_seq_cst);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    return e;
  }
  /// Lane: blocks until the word moves past `epoch` (at once if it already
  /// has), then withdraws the park.  Parks and their wall time (vDSO
  /// CLOCK_MONOTONIC) go to the ledger.
  void wait(std::uint32_t epoch) {
    const std::uint64_t t0 = now_ns();
    word_.wait(epoch, std::memory_order_acquire);
    park_ns_.fetch_add(now_ns() - t0, std::memory_order_relaxed);
    parks_.fetch_add(1, std::memory_order_relaxed);
    cancel_park();
  }
  void cancel_park() { parked_.fetch_sub(1, std::memory_order_relaxed); }

  /// Producer, after publishing: wakes the stage if a lane is parked.
  void wake_if_parked() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (parked_.load(std::memory_order_relaxed) == 0) return;
    wakes_.fetch_add(1, std::memory_order_relaxed);
    bump();
  }
  /// Finish events, after their flag store: wakes whoever is parked now or
  /// is between prepare_park() and wait().
  void wake() {
    if (parked_.load(std::memory_order_relaxed) != 0) {
      wakes_.fetch_add(1, std::memory_order_relaxed);
    }
    bump();
  }

  std::uint64_t parks() const { return parks_.load(std::memory_order_relaxed); }
  std::uint64_t wakes() const { return wakes_.load(std::memory_order_relaxed); }
  std::uint64_t park_ns() const {
    return park_ns_.load(std::memory_order_relaxed);
  }

 private:
  void bump() {
    word_.fetch_add(1, std::memory_order_release);
    word_.notify_all();
  }

  alignas(64) std::atomic<std::uint32_t> word_{0};
  std::atomic<std::uint32_t> parked_{0};
  // Ledger, touched once per park or wake (never per item).
  alignas(64) std::atomic<std::uint64_t> parks_{0};
  std::atomic<std::uint64_t> wakes_{0};
  std::atomic<std::uint64_t> park_ns_{0};
};

/// One lane's idle sequence on its stage's WakeWord.  The lane calls idle()
/// after each check of its input that found nothing, and busy() when a
/// check found work.  The first kRelaxRounds empty checks relax-spin; the
/// next one arms the park (prepare_park), which makes the lane's following
/// check the Dekker re-check; if that comes up empty too, idle() parks.
class LaneIdle {
 public:
  explicit LaneIdle(WakeWord& word) : word_(word) {}
  ~LaneIdle() { busy(); }
  LaneIdle(const LaneIdle&) = delete;
  LaneIdle& operator=(const LaneIdle&) = delete;

  void idle() {
    if (armed_) {
      armed_ = false;
      word_.wait(epoch_);
      rounds_ = 0;
    } else if (rounds_ < kRelaxRounds) {
      relax_round(rounds_++);
    } else {
      epoch_ = word_.prepare_park();
      armed_ = true;
    }
  }
  /// Withdraws an armed park and restarts the spin.
  void busy() {
    if (armed_) {
      word_.cancel_park();
      armed_ = false;
    }
    rounds_ = 0;
  }

 private:
  WakeWord& word_;
  int rounds_ = 0;
  bool armed_ = false;
  std::uint32_t epoch_ = 0;
};

}  // namespace pint::pintd
