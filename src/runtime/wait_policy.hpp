// The WaitPolicy seam: every waiting site in src/runtime paces itself
// through one of the policies below instead of hand-rolling a spin loop.
//
// The paper's cost model waits by local spinning on a private word (§3: a
// failed conditional RMW is a negative acknowledgment; the caller retries).
// On a real machine every policy runs that model first: one schedule,
// PacedWait, opens each wait episode with the same spin grace (round r
// spins 2^r pause instructions, 1+2+…+64 over kSpinRounds = 7 rounds).
// The policies differ only in what each later round does, which is
// exactly the policy axis:
//
//  * SpinWait — spins kSpinCap pauses, never yielding the core. The
//    paper's model verbatim; right when waiters ≤ cores and latency is
//    everything.
//  * SpinYieldWait — today's default: yields (std::this_thread::yield).
//    The yield matters once the partner we wait for may need our core
//    (mild oversubscription).
//  * FutexWait — yields kYieldRounds rounds, then PARKS in the kernel
//    (Linux futex(2); a striped mutex+condvar parking lot elsewhere) until
//    the waited word changes or a bounded, escalating timeout fires.
//    Right when waiters ≫ cores: parked waiters stop burning the very
//    cycles the lock holder needs.
//
// Interface (concept `WaitPolicy`): a policy object paces ONE wait episode,
// one round per call. Callers keep their predicate re-check loop around
// the call. Rounds are blind or watching, and three kinds of wait pick
// between them:
//
//  * blind rounds spin their whole 2^r pauses before the caller re-checks.
//    `pause()` has no addressable word (FutexWait degrades to a bounded
//    timed sleep, so progress never depends on a waker);
//    `wait_while_equal(w, v)` may park on `w` while it holds `v`. They
//    serve two kinds of wait:
//    - BLIND WINDOWS, the combiners' collision and election windows, whose
//      point is to let time pass;
//    - CONTENDED RETRIES on words many threads write (shared lock words,
//      a slot being claimed, the rw-lock's counts): re-reading such a word
//      every pause would pull its line away from the thread about to
//      release it;
//  * watching rounds re-check before every pause of the spin grace, end
//    as soon as the wait is over and count only the pauses spent; past
//    the grace they are exactly the blind round of their kind. They serve
//    WATCHED HANDOFFS, a reply that one writer lands in a word only the
//    waiter polls (the paper's local spin on a private word, §3), where a
//    blind round would sit out the rest of a 16- or 32-pause round after
//    the reply arrived:
//    - `watch_while_equal(w, v)` for a 32-bit word;
//    - `watch_until(ready)` for a word a parking policy cannot address;
//      its park round is `pause()`'s timed sleep.
//
// `reset()` re-arms the schedule between independent episodes.
// `notify_one/all(w)` are the waker-side hooks — no-ops unless the policy
// parks (`kParks`), so default-policy fast paths stay store-only.
//
// Telemetry: every policy counts spins / yields / parks and every notify
// counts wakes. Counters accumulate in the thread's record
// (thread_ordinal.hpp; flushed on reset/destruction), which the exit hook
// drains into process totals at thread exit, after the thread's C++
// thread_local destructors — wait_stats_snapshot() after joining workers
// is exact, and a live thread can watch its own thread_wait_stats() deltas
// (the bench harness does).
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

#include "runtime/thread_ordinal.hpp"

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

namespace detail {

/// The calling thread's wait counters, with the exit hook armed so that
/// they drain into the process totals when the thread exits.
inline WaitStats& wait_counters() noexcept {
  if (!thread_record.armed) [[unlikely]] arm_exit_hook();
  return thread_record.waits;
}

}  // namespace detail

/// This thread's accumulated wait work (policies flush here on reset and
/// destruction — counts from a policy object mid-episode are not yet
/// visible). Monotone within a thread; sample deltas around a region.
[[nodiscard]] inline WaitStats thread_wait_stats() noexcept {
  return detail::thread_record.waits;
}

/// Process-wide wait work: totals drained from exited threads plus the
/// calling thread's own. Exact once all other worker threads have been
/// joined (their exit hooks drained); approximate while they run.
[[nodiscard]] inline WaitStats wait_stats_snapshot() noexcept {
  WaitStats s = detail::thread_record.waits;
  detail::GlobalWaitStats& g = detail::GlobalWaitStats::instance();
  const std::lock_guard<std::mutex> lk(g.mu);
  return s += g.exited;
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

/// What a paced wait does on each round once its spin grace is spent.
enum class AfterGrace {
  kSpin,   ///< spin kSpinCap pauses (SpinWait)
  kYield,  ///< yield the core (SpinYieldWait)
  kPark,   ///< yield kYieldRounds rounds, then park (FutexWait)
};

/// The one wait schedule: a spin grace of kSpinRounds rounds, where round
/// r spins 2^r pauses (1+2+…+64), then `After` on every later round. Park
/// rounds carry an escalating bounded timeout: livelock insurance for
/// protocols whose wakers publish after their scan (the flat combiner's
/// handoff), at worst costing one timeout of latency, never a hang.
template <AfterGrace After>
class PacedWait {
 public:
  static constexpr bool kParks = After == AfterGrace::kPark;
  static constexpr std::uint32_t kSpinRounds = 7;
  static constexpr std::uint32_t kSpinCap = 1u << (kSpinRounds - 1);
  static constexpr std::uint32_t kYieldRounds = 4;
  static constexpr std::chrono::nanoseconds kMinParkTimeout{100'000};
  static constexpr std::chrono::nanoseconds kMaxParkTimeout{5'000'000};

  PacedWait() = default;
  PacedWait(const PacedWait&) = delete;
  PacedWait& operator=(const PacedWait&) = delete;
  ~PacedWait() { flush(); }

  /// Blind round: no word to park on, so a park round is a bounded timed
  /// sleep — progress never depends on a waker the caller can't name.
  void pause() noexcept {
    if (!park_due()) return;
    std::this_thread::sleep_for(next_timeout());
    ++local_.parks;
  }

  /// Addressable round: a park round parks on `w` while it holds `v`,
  /// bounded (futex(2): the kernel atomically re-checks the expected
  /// value, so a wake issued between our user-space check and the sleep
  /// is never lost). The caller re-checks its predicate and loops; a
  /// spurious or timed-out return costs one loop iteration, nothing else.
  void wait_while_equal(const std::atomic<std::uint32_t>& w,
                        std::uint32_t v) noexcept {
    if (!park_due()) return;
    detail::do_park(&w, v, next_timeout());
    ++local_.parks;
  }

  /// Watching round on an addressable word: inside the spin grace, it
  /// re-checks `w` before every pause and ends as soon as `w` differs
  /// from `v`; past the grace, it is exactly wait_while_equal.
  void watch_while_equal(const std::atomic<std::uint32_t>& w,
                         std::uint32_t v) noexcept {
    if (round_ < kSpinRounds) {
      watch([&w, v] { return w.load(std::memory_order_acquire) != v; });
    } else {
      wait_while_equal(w, v);
    }
  }

  /// Watching round on a word only `ready` can read: inside the spin
  /// grace, it re-checks `ready()` before every pause and ends as soon as
  /// it holds; past the grace, it is exactly pause().
  template <std::predicate Ready>
  void watch_until(Ready&& ready) {
    if (round_ < kSpinRounds) {
      watch(ready);
    } else {
      pause();
    }
  }

  void reset() noexcept {
    flush();
    round_ = 0;
    timeout_ = kMinParkTimeout;
  }

  static void notify_one(std::atomic<std::uint32_t>& w) noexcept {
    notify(w, false);
  }
  static void notify_all(std::atomic<std::uint32_t>& w) noexcept {
    notify(w, true);
  }

 private:
  static void notify(std::atomic<std::uint32_t>& w, bool all) noexcept {
    if constexpr (kParks) {
      detail::do_wake(&w, all);
      ++detail::wait_counters().wakes;
    }
  }

  /// Runs this round's spins or yield, or returns true when the round is
  /// a park. `round_` saturates at the first park round.
  bool park_due() noexcept {
    if (round_ < kSpinRounds) {
      spin(1u << round_);
      ++round_;
      return false;
    }
    if constexpr (After == AfterGrace::kSpin) {
      spin(kSpinCap);
      return false;
    }
    if (kParks && round_ == kSpinRounds + kYieldRounds) return true;
    std::this_thread::yield();
    ++local_.yields;
    if (round_ < kSpinRounds + kYieldRounds) ++round_;
    return false;
  }

  void spin(std::uint32_t n) noexcept {
    for (std::uint32_t i = 0; i < n; ++i) cpu_relax();
    local_.spins += n;
  }

  /// One spin-grace round that ends early once `done()` holds. Separate
  /// from spin(), so the blind rounds keep their code.
  template <typename Done>
  void watch(Done&& done) {
    const std::uint32_t n = 1u << round_;
    std::uint32_t i = 0;
    for (; i < n && !done(); ++i) cpu_relax();
    local_.spins += i;
    ++round_;
  }

  std::chrono::nanoseconds next_timeout() noexcept {
    const auto t = timeout_;
    timeout_ = timeout_ * 2 > kMaxParkTimeout ? kMaxParkTimeout : timeout_ * 2;
    return t;
  }

  void flush() noexcept {
    detail::wait_counters() += local_;
    local_ = {};
  }

  std::uint32_t round_ = 0;
  std::chrono::nanoseconds timeout_ = kMinParkTimeout;
  WaitStats local_{};
};

/// Pure local spinning, never yielding the core — the paper's
/// private-word wait model verbatim. Cheapest latency when waiters ≤
/// cores; pathological when the partner needs this core.
using SpinWait = PacedWait<AfterGrace::kSpin>;

/// The default. The yield matters on oversubscribed hosts (more waiters
/// than cores): the partner we are waiting for may need our core to make
/// progress at all.
using SpinYieldWait = PacedWait<AfterGrace::kYield>;

/// Spin-then-park: parked waiters stop burning the very cycles the lock
/// holder needs. Right when waiters ≫ cores.
using FutexWait = PacedWait<AfterGrace::kPark>;

/// True when a window of `rounds` wait rounds stays inside the spin grace
/// every shipped policy opens with, so no window round yields or parks.
/// Both combiners size their collision windows by it.
constexpr bool inside_spin_grace(unsigned rounds) noexcept {
  return rounds < SpinWait::kSpinRounds;
}

// ---- the concept ------------------------------------------------------------

template <typename P>
concept WaitPolicy =
    std::is_default_constructible_v<P> &&
    requires(P p, const std::atomic<std::uint32_t>& cw,
             std::atomic<std::uint32_t>& w, std::uint32_t v,
             bool (*ready)()) {
      p.pause();
      p.reset();
      p.wait_while_equal(cw, v);
      p.watch_while_equal(cw, v);
      p.watch_until(ready);
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
