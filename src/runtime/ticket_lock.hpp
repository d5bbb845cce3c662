// A fetch-and-add ticket lock: the textbook application of the
// "fetch-and-add hands out distinct tickets" property that combining makes
// contention-free. Acquire takes one fetch-and-add (combinable — under a
// combining memory P simultaneous acquirers cost O(log P) network work);
// release is one store. FIFO-fair by construction, unlike test-and-set
// spin locks. Waiters back off proportionally to their queue distance
// (Mellor-Crummey–Scott's classic ticket-lock fix): the thread holding
// ticket t re-reads now_serving only after ~(t − now_serving)·k pauses,
// so the serving word is not a P-way coherence hot spot.
//
// The Instrument policy (analysis/instrument.hpp) publishes the lock's
// happens-before edges to the race detector: an empty policy by default
// (zero cost), the global detector when analysis is enabled.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

#include "analysis/instrument.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/wait_policy.hpp"

namespace krs::runtime {

namespace detail {

inline constexpr std::uint64_t kProportionalSpinsPerWaiter = 48;
inline constexpr std::uint64_t kProportionalYieldAhead = 16;

/// Pure schedule of proportional_backoff: how many pause instructions a
/// waiter `ahead` places from service spins before re-reading, or 0 for
/// the yield regime (and, trivially, at the head of the line).
constexpr std::uint64_t proportional_spin_count(std::uint64_t ahead) noexcept {
  return ahead >= kProportionalYieldAhead
             ? 0
             : ahead * kProportionalSpinsPerWaiter;
}

/// Wait roughly proportional to how far back in line we are: `ahead`
/// waiters will be served first, so there is no point re-reading sooner.
/// Long waits (deep queues, oversubscription) degrade to a yield;
/// ahead == 0 (served next) is a no-op.
inline void proportional_backoff(std::uint64_t ahead) noexcept {
  if (ahead >= kProportionalYieldAhead) {
    std::this_thread::yield();
    return;
  }
  const std::uint64_t n = proportional_spin_count(ahead);
  for (std::uint64_t i = 0; i < n; ++i) cpu_relax();
}

}  // namespace detail

template <typename Instrument = analysis::DefaultInstrument,
          WaitPolicy Policy = SpinYieldWait>
class BasicTicketLock {
 public:
  void lock() noexcept(!Instrument::enabled) {
    Instrument::contended_rmw(&next_, KRS_SITE);
    const std::uint64_t my =
        next_.fetch_add(1, std::memory_order_acq_rel);
    Policy pol;
    std::uint64_t prev_ahead = ~std::uint64_t{0};
    for (;;) {
      Instrument::shared_load(&serving_, KRS_SITE);
      const std::uint64_t now = serving_.load(std::memory_order_acquire);
      if (now == my) break;
      // Proportional backoff: my - now waiters are served before us, so
      // wait roughly that long before re-reading instead of hammering
      // the serving word from every queued thread. If the queue did not
      // advance since our last read, the holder is likely preempted
      // (oversubscribed host) and needs this core — hand the round to
      // the wait policy (yield by default; FutexWait sleeps outright).
      const std::uint64_t ahead = my - now;
      if (ahead >= prev_ahead) {
        pol.pause();
      } else {
        detail::proportional_backoff(ahead);
        pol.reset();  // queue advanced: a fresh wait episode
      }
      prev_ahead = ahead;
    }
    Instrument::acquire(this);
  }

  bool try_lock() noexcept(!Instrument::enabled) {
    Instrument::shared_load(&serving_, KRS_SITE);
    std::uint64_t serving = serving_.load(std::memory_order_acquire);
    std::uint64_t expected = serving;
    // Take a ticket only if it would be served immediately.
    Instrument::contended_rmw(&next_, KRS_SITE);
    if (next_.compare_exchange_strong(expected, serving + 1,
                                      std::memory_order_acq_rel)) {
      Instrument::acquire(this);
      return true;
    }
    return false;
  }

  void unlock() noexcept(!Instrument::enabled) {
    Instrument::release(this);
    Instrument::contended_rmw(&serving_, KRS_SITE);
    serving_.fetch_add(1, std::memory_order_acq_rel);
  }

  /// Number of waiters currently queued (approximate).
  [[nodiscard]] std::uint64_t queue_length() const noexcept {
    const auto n = next_.load(std::memory_order_acquire);
    const auto s = serving_.load(std::memory_order_acquire);
    return n > s ? n - s : 0;
  }

  class Scoped {
   public:
    explicit Scoped(BasicTicketLock& l) noexcept(!Instrument::enabled)
        : l_(l) {
      l_.lock();
    }
    Scoped(const Scoped&) = delete;
    Scoped& operator=(const Scoped&) = delete;
    ~Scoped() { l_.unlock(); }

   private:
    BasicTicketLock& l_;
  };

 private:
  alignas(kCacheLine) std::atomic<std::uint64_t> next_{0};
  alignas(kCacheLine) std::atomic<std::uint64_t> serving_{0};
};

using TicketLock = BasicTicketLock<>;

}  // namespace krs::runtime
