// The WaitPolicy seam: every waiting site in src/runtime paces itself
// through one of the policies below instead of hand-rolling a spin loop.
//
// The paper's cost model waits by local spinning on a private word (§3: a
// failed conditional RMW is a negative acknowledgment; the caller retries).
// On a real machine that model splits three ways, which is exactly the
// policy axis:
//
//  * SpinWait — pure local spinning with bounded exponential pacing, never
//    yielding the core. The paper's model verbatim; right when waiters ≤
//    cores and latency is everything.
//  * SpinYieldWait — today's default: bounded exponential backoff (spin
//    1, 2, 4, … pause instructions to a cap, then std::this_thread::yield
//    each round). The yield matters once the partner we wait for may need
//    our core (mild oversubscription).
//  * FutexWait — spin-then-park: a short spin grace, a few yields, then
//    the thread PARKS in the kernel (Linux futex(2); a striped
//    mutex+condvar parking lot elsewhere) until the waited word changes or
//    a bounded timeout fires. Right when waiters ≫ cores: parked waiters
//    stop burning the very cycles the lock holder needs.
//
// Interface (concept `WaitPolicy`): a policy object paces ONE wait episode.
// `pause()` is a blind round (no addressable word — FutexWait degrades to a
// bounded timed sleep, so progress never depends on a waker). `wait_while_
// equal(w, v)` is an addressable round: the policy may park on `w` while it
// holds `v`; callers keep the predicate re-check loop around it. `reset()`
// re-arms the schedule between independent episodes. `notify_one/all(w)`
// are the waker-side hooks — no-ops unless the policy parks (`kParks`), so
// default-policy fast paths stay store-only.
//
// Telemetry: every policy counts spins / yields / parks and every notify
// counts wakes. Counters accumulate into a thread-local block (flushed on
// reset/destruction) that drains into process totals at thread exit —
// wait_stats_snapshot() after joining workers is exact, and a live thread
// can watch its own thread_wait_stats() deltas (the bench harness does).
//
// Tests can interpose on parking via futex_hooks(): swap park/wake with
// scripted functions to drive spurious wakeups and lost-wake orderings
// deterministically. Hooks are process-global; install them while no
// thread is parked.
#pragma once

#include <atomic>
#include <chrono>
#include <concepts>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <type_traits>

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
#include <ctime>
#endif

namespace krs::runtime {

/// One "doing nothing, politely" instruction for spin loops.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("isb" ::: "memory");
#else
  // No pause hint on this target; the loop's atomic load is the pacing.
#endif
}

/// Cumulative wait-side work: spin rounds (in pause instructions), yields,
/// parks (kernel sleeps, timed or woken), and wakes issued by notifiers.
struct WaitStats {
  std::uint64_t spins = 0;
  std::uint64_t yields = 0;
  std::uint64_t parks = 0;
  std::uint64_t wakes = 0;

  WaitStats& operator+=(const WaitStats& o) noexcept {
    spins += o.spins;
    yields += o.yields;
    parks += o.parks;
    wakes += o.wakes;
    return *this;
  }
  friend WaitStats operator-(WaitStats a, const WaitStats& b) noexcept {
    a.spins -= b.spins;
    a.yields -= b.yields;
    a.parks -= b.parks;
    a.wakes -= b.wakes;
    return a;
  }
};

namespace detail {

struct GlobalWaitStats {
  std::atomic<std::uint64_t> spins{0};
  std::atomic<std::uint64_t> yields{0};
  std::atomic<std::uint64_t> parks{0};
  std::atomic<std::uint64_t> wakes{0};

  static GlobalWaitStats& instance() {
    static GlobalWaitStats g;
    return g;
  }

  void drain(const WaitStats& s) noexcept {
    if (s.spins) spins.fetch_add(s.spins, std::memory_order_relaxed);
    if (s.yields) yields.fetch_add(s.yields, std::memory_order_relaxed);
    if (s.parks) parks.fetch_add(s.parks, std::memory_order_relaxed);
    if (s.wakes) wakes.fetch_add(s.wakes, std::memory_order_relaxed);
  }

  [[nodiscard]] WaitStats snapshot() const noexcept {
    WaitStats s;
    s.spins = spins.load(std::memory_order_relaxed);
    s.yields = yields.load(std::memory_order_relaxed);
    s.parks = parks.load(std::memory_order_relaxed);
    s.wakes = wakes.load(std::memory_order_relaxed);
    return s;
  }
};

/// Per-thread running totals; the destructor drains them into the process
/// totals, so a coordinator that has JOINED its workers reads exact sums.
struct TlsWaitStats {
  WaitStats stats;
  TlsWaitStats() = default;
  TlsWaitStats(const TlsWaitStats&) = delete;
  TlsWaitStats& operator=(const TlsWaitStats&) = delete;
  ~TlsWaitStats() { GlobalWaitStats::instance().drain(stats); }
};

inline TlsWaitStats& wait_tls() noexcept {
  thread_local TlsWaitStats t;
  return t;
}

}  // namespace detail

/// This thread's accumulated wait work (policies flush here on reset and
/// destruction — counts from a policy object mid-episode are not yet
/// visible). Monotone within a thread; sample deltas around a region.
[[nodiscard]] inline WaitStats thread_wait_stats() noexcept {
  return detail::wait_tls().stats;
}

/// Process-wide wait work: totals drained from exited threads plus the
/// calling thread's own. Exact once all other worker threads have been
/// joined (their destructors drained); approximate while they run.
[[nodiscard]] inline WaitStats wait_stats_snapshot() noexcept {
  WaitStats s = detail::GlobalWaitStats::instance().snapshot();
  s += detail::wait_tls().stats;
  return s;
}

// ---- parking substrate ------------------------------------------------------

/// Test seam over the kernel park/wake pair. `park` returns true if the
/// call actually slept (woken or timed out), false if it returned
/// immediately because `*w != expected` (the kernel's atomic re-check —
/// the property that makes parking lost-wake-safe). Null pointers = the
/// real implementation. Process-global: install while nothing is parked.
struct FutexHooks {
  bool (*park)(const std::atomic<std::uint32_t>* w, std::uint32_t expected,
               std::chrono::nanoseconds timeout) = nullptr;
  void (*wake)(const std::atomic<std::uint32_t>* w, bool all) = nullptr;
};

inline FutexHooks& futex_hooks() noexcept {
  static FutexHooks hooks;
  return hooks;
}

namespace detail {

#if defined(__linux__)

/// futex(FUTEX_WAIT_PRIVATE): sleep while *w == expected, bounded by
/// `timeout`. The kernel re-checks the word under its internal lock, so a
/// wake issued after the caller's user-space check cannot be lost.
inline bool futex_park_impl(const std::atomic<std::uint32_t>* w,
                            std::uint32_t expected,
                            std::chrono::nanoseconds timeout) noexcept {
  struct timespec ts;
  struct timespec* tsp = nullptr;
  if (timeout.count() > 0) {
    ts.tv_sec = static_cast<time_t>(timeout.count() / 1000000000);
    ts.tv_nsec = static_cast<long>(timeout.count() % 1000000000);
    tsp = &ts;
  }
  const long rc =
      syscall(SYS_futex, reinterpret_cast<const std::uint32_t*>(w),
              FUTEX_WAIT_PRIVATE, expected, tsp, nullptr, 0);
  if (rc == 0) return true;                      // woken
  return errno == ETIMEDOUT || errno == EINTR;   // slept, then timed out /
                                                 // spuriously interrupted
  // EAGAIN: *w != expected at kernel re-check — never slept.
}

inline void futex_wake_impl(const std::atomic<std::uint32_t>* w,
                            bool all) noexcept {
  syscall(SYS_futex, reinterpret_cast<const std::uint32_t*>(w),
          FUTEX_WAKE_PRIVATE, all ? INT_MAX : 1, nullptr, nullptr, 0);
}

#else

/// Portable fallback: a striped mutex+condvar parking lot keyed by the
/// word's address. The waiter re-checks the word UNDER the stripe mutex
/// and the waker takes the same mutex before notifying, which restores the
/// futex's lost-wake guarantee (at condvar cost).
struct ParkingLot {
  static constexpr std::size_t kStripes = 64;
  struct Stripe {
    std::mutex mu;
    std::condition_variable cv;
  };
  Stripe stripes[kStripes];

  static ParkingLot& instance() {
    static ParkingLot lot;
    return lot;
  }
  Stripe& of(const void* addr) noexcept {
    const auto p = reinterpret_cast<std::uintptr_t>(addr);
    return stripes[(p >> 4) % kStripes];
  }
};

inline bool futex_park_impl(const std::atomic<std::uint32_t>* w,
                            std::uint32_t expected,
                            std::chrono::nanoseconds timeout) noexcept {
  auto& st = ParkingLot::instance().of(w);
  std::unique_lock<std::mutex> lk(st.mu);
  if (w->load(std::memory_order_acquire) != expected) return false;
  if (timeout.count() > 0) {
    st.cv.wait_for(lk, timeout);
  } else {
    st.cv.wait(lk);
  }
  return true;
}

inline void futex_wake_impl(const std::atomic<std::uint32_t>* w,
                            bool all) noexcept {
  auto& st = ParkingLot::instance().of(w);
  {
    std::lock_guard<std::mutex> lk(st.mu);  // order against the re-check
  }
  if (all) {
    st.cv.notify_all();
  } else {
    st.cv.notify_one();  // stripe sharing may wake a stranger: spurious,
                         // absorbed by every caller's re-check loop
  }
}

#endif

inline bool do_park(const std::atomic<std::uint32_t>* w, std::uint32_t v,
                    std::chrono::nanoseconds timeout) noexcept {
  if (auto* f = futex_hooks().park) return f(w, v, timeout);
  return futex_park_impl(w, v, timeout);
}

inline void do_wake(const std::atomic<std::uint32_t>* w, bool all) noexcept {
  if (auto* f = futex_hooks().wake) {
    f(w, all);
    return;
  }
  futex_wake_impl(w, all);
}

}  // namespace detail

// ---- policies ---------------------------------------------------------------

/// Pure local spinning, exponentially paced to a cap, never yielding the
/// core — the paper's private-word wait model verbatim. Cheapest latency
/// when waiters ≤ cores; pathological when the partner needs this core.
class SpinWait {
 public:
  static constexpr bool kParks = false;
  static constexpr std::uint32_t kSpinCap = 64;

  SpinWait() = default;
  SpinWait(const SpinWait&) = delete;
  SpinWait& operator=(const SpinWait&) = delete;
  ~SpinWait() { flush(); }

  void pause() noexcept {
    const std::uint32_t n = spins_;
    for (std::uint32_t i = 0; i < n; ++i) cpu_relax();
    local_.spins += n;
    if (spins_ < kSpinCap) spins_ *= 2;
  }

  void wait_while_equal(const std::atomic<std::uint32_t>&,
                        std::uint32_t) noexcept {
    pause();  // the caller's predicate loop re-reads the word
  }

  void reset() noexcept {
    flush();
    spins_ = 1;
  }

  static void notify_one(std::atomic<std::uint32_t>&) noexcept {}
  static void notify_all(std::atomic<std::uint32_t>&) noexcept {}

 private:
  void flush() noexcept {
    detail::wait_tls().stats += local_;
    local_ = {};
  }

  std::uint32_t spins_ = 1;
  WaitStats local_{};
};

/// The default: bounded exponential backoff — spin 1, 2, 4, … pause
/// instructions up to the cap, then yield every further round. The yield
/// matters on oversubscribed hosts (more waiters than cores): the partner
/// we are waiting for may need our core to make progress at all.
class SpinYieldWait {
 public:
  static constexpr bool kParks = false;
  static constexpr std::uint32_t kSpinCap = SpinWait::kSpinCap;

  SpinYieldWait() = default;
  SpinYieldWait(const SpinYieldWait&) = delete;
  SpinYieldWait& operator=(const SpinYieldWait&) = delete;
  ~SpinYieldWait() { flush(); }

  void pause() noexcept {
    if (spins_ <= kSpinCap) {
      for (std::uint32_t i = 0; i < spins_; ++i) cpu_relax();
      local_.spins += spins_;
      spins_ *= 2;  // saturates one doubling past the cap: yields from here
    } else {
      std::this_thread::yield();
      ++local_.yields;
    }
  }

  void wait_while_equal(const std::atomic<std::uint32_t>&,
                        std::uint32_t) noexcept {
    pause();
  }

  void reset() noexcept {
    flush();
    spins_ = 1;
  }

  static void notify_one(std::atomic<std::uint32_t>&) noexcept {}
  static void notify_all(std::atomic<std::uint32_t>&) noexcept {}

 private:
  void flush() noexcept {
    detail::wait_tls().stats += local_;
    local_ = {};
  }

  std::uint32_t spins_ = 1;
  WaitStats local_{};
};

/// Spin-then-park: a short exponential spin grace, a few yields, then the
/// thread parks in the kernel. Addressable waits park on the waited word
/// itself (futex(2): the kernel atomically re-checks the expected value,
/// so a wake issued between our user-space check and the sleep is never
/// lost); blind waits degrade to a bounded timed sleep. Every park carries
/// an escalating bounded timeout — livelock insurance for protocols whose
/// wakers publish after their scan (the flat combiner's handoff), at worst
/// costing one timeout of latency, never a hang.
class FutexWait {
 public:
  static constexpr bool kParks = true;
  static constexpr std::uint32_t kSpinRounds = 7;   // 1+2+…+64 pause grace
  static constexpr std::uint32_t kYieldRounds = 4;  // then a few yields
  static constexpr std::chrono::nanoseconds kMinParkTimeout{100'000};
  static constexpr std::chrono::nanoseconds kMaxParkTimeout{5'000'000};

  FutexWait() = default;
  FutexWait(const FutexWait&) = delete;
  FutexWait& operator=(const FutexWait&) = delete;
  ~FutexWait() { flush(); }

  /// Blind round: no word to park on, so the park phase is a bounded timed
  /// sleep — progress never depends on a waker the caller can't name.
  void pause() noexcept {
    if (grace_round()) return;
    std::this_thread::sleep_for(next_timeout());
    ++local_.parks;
  }

  /// Addressable round: park on `w` while it holds `v`, bounded. The
  /// caller re-checks its predicate and loops; a spurious or timed-out
  /// return costs one loop iteration, nothing else.
  void wait_while_equal(const std::atomic<std::uint32_t>& w,
                        std::uint32_t v) noexcept {
    if (grace_round()) return;
    detail::do_park(&w, v, next_timeout());
    ++local_.parks;
  }

  void reset() noexcept {
    flush();
    round_ = 0;
    timeout_ = kMinParkTimeout;
  }

  static void notify_one(std::atomic<std::uint32_t>& w) noexcept {
    detail::do_wake(&w, false);
    ++detail::wait_tls().stats.wakes;
  }
  static void notify_all(std::atomic<std::uint32_t>& w) noexcept {
    detail::do_wake(&w, true);
    ++detail::wait_tls().stats.wakes;
  }

 private:
  bool grace_round() noexcept {
    if (round_ < kSpinRounds) {
      const std::uint32_t n = 1u << round_;
      for (std::uint32_t i = 0; i < n; ++i) cpu_relax();
      local_.spins += n;
      ++round_;
      return true;
    }
    if (round_ < kSpinRounds + kYieldRounds) {
      std::this_thread::yield();
      ++local_.yields;
      ++round_;
      return true;
    }
    return false;
  }

  std::chrono::nanoseconds next_timeout() noexcept {
    const auto t = timeout_;
    timeout_ = timeout_ * 2 > kMaxParkTimeout ? kMaxParkTimeout : timeout_ * 2;
    return t;
  }

  void flush() noexcept {
    detail::wait_tls().stats += local_;
    local_ = {};
  }

  std::uint32_t round_ = 0;
  std::chrono::nanoseconds timeout_ = kMinParkTimeout;
  WaitStats local_{};
};

// ---- the concept ------------------------------------------------------------

template <typename P>
concept WaitPolicy =
    std::is_default_constructible_v<P> &&
    requires(P p, const std::atomic<std::uint32_t>& cw,
             std::atomic<std::uint32_t>& w, std::uint32_t v) {
      p.pause();
      p.reset();
      p.wait_while_equal(cw, v);
      P::notify_one(w);
      P::notify_all(w);
      { P::kParks } -> std::convertible_to<bool>;
    };

static_assert(WaitPolicy<SpinWait>);
static_assert(WaitPolicy<SpinYieldWait>);
static_assert(WaitPolicy<FutexWait>);

// ---- episode tracking -------------------------------------------------------

/// Resets the wrapped policy whenever the observed state word CHANGES —
/// one wait episode per observed occupancy. This is the fix for backoff
/// objects silently carried across independent waits (a retry loop that
/// watches a node through several occupancies used to keep one ever-
/// growing schedule): a state transition means the thing we were waiting
/// for happened and a NEW wait began, so the schedule re-arms.
template <WaitPolicy Policy>
class EpisodeWait {
 public:
  explicit EpisodeWait(Policy& pol) noexcept : pol_(pol) {}

  /// One blind round against the observed word `w`.
  void observe_and_pause(std::uint64_t w) noexcept {
    if (!seen_ || w != last_) {
      if (seen_) pol_.reset();  // state moved: new episode, fresh schedule
      last_ = w;
      seen_ = true;
    }
    pol_.pause();
  }

 private:
  Policy& pol_;
  std::uint64_t last_ = 0;
  bool seen_ = false;
};

}  // namespace krs::runtime
