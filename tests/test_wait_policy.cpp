// The WaitPolicy seam and the local-spin lock tier, pinned from both
// sides:
//
//  * deterministic hook-driven FutexWait tests — futex_hooks() swaps the
//    kernel park/wake pair for scripted functions, so spurious wakeups,
//    the lost-wake ordering (the kernel's atomic re-check of the waited
//    word), and the escalating bounded park timeout are driven exactly,
//    on one thread, with no timing dependence;
//  * real-thread stress — BasicParkingLock under SpinWait and FutexWait,
//    oversubscribed max(8, 4 × cores) ways on one counter (actual futex
//    syscalls on Linux), the flat combiner and the combining tree under
//    SpinYieldWait and FutexWait just as oversubscribed, MCS/CLH distinct
//    critical-section tickets at 2/4/8 threads, and deterministic FIFO
//    handoff via the contended_acquires() stagger (spawn thread i+1 only
//    after thread i has provably enqueued behind a held lock);
//  * watching rounds — inside the grace a round ends on the pause its
//    word changes (at once on a word that already differs, mid-round on
//    one another thread flips) and counts only the pauses spent; past
//    the grace the hook-driven FutexWait cases hold for them unchanged;
//  * the telemetry plumbing — per-thread counts drain to the process
//    totals at thread exit, so a joined coordinator reads exact sums;
//  * EpisodeWait — the backoff-reset fix: the schedule re-arms exactly
//    when the observed state word changes, not on the first observation
//    and not on a repeat.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "runtime/combining_backend.hpp"
#include "runtime/local_spin_locks.hpp"
#include "runtime/tree_barrier.hpp"
#include "runtime/wait_policy.hpp"

namespace {

using namespace krs::runtime;

// ---- hook scripting state (tests install/uninstall around use; gtest
// runs tests sequentially in one process, so plain globals suffice) ------

std::atomic<int> g_park_calls{0};
std::atomic<int> g_park_mismatches{0};  // kernel re-check found w != expected
std::atomic<int> g_wake_calls{0};
int g_release_on_park = 0;  // park call index that flips the word to 1
std::vector<std::chrono::nanoseconds> g_timeouts;  // single-threaded tests

void reset_hook_state() {
  g_park_calls = 0;
  g_park_mismatches = 0;
  g_wake_calls = 0;
  g_release_on_park = 0;
  g_timeouts.clear();
}

/// Installs hooks for one test body and restores the real implementation
/// on the way out — hooks are process-global, so nothing may be parked
/// across the swap (all hook tests are single-threaded).
struct HookGuard {
  explicit HookGuard(FutexHooks h) {
    reset_hook_state();
    futex_hooks() = h;
  }
  HookGuard(const HookGuard&) = delete;
  HookGuard& operator=(const HookGuard&) = delete;
  ~HookGuard() { futex_hooks() = {}; }
};

/// A park that honors the kernel contract (return false without sleeping
/// when the word moved) but otherwise wakes SPURIOUSLY every time; on
/// call #g_release_on_park it performs the real release first, playing
/// the waker that fires mid-sleep.
bool scripted_park(const std::atomic<std::uint32_t>* w, std::uint32_t expected,
                   std::chrono::nanoseconds) {
  const int n = g_park_calls.fetch_add(1, std::memory_order_relaxed) + 1;
  if (w->load(std::memory_order_acquire) != expected) {
    g_park_mismatches.fetch_add(1, std::memory_order_relaxed);
    return false;  // the atomic re-check: never slept
  }
  if (g_release_on_park != 0 && n >= g_release_on_park) {
    const_cast<std::atomic<std::uint32_t>*>(w)->store(
        1, std::memory_order_release);
  }
  return true;  // "woken" — spuriously unless the store above ran
}

bool timeout_recording_park(const std::atomic<std::uint32_t>*, std::uint32_t,
                            std::chrono::nanoseconds timeout) {
  g_timeouts.push_back(timeout);
  return true;  // spurious wake every time; the word never changes
}

void counting_wake(const std::atomic<std::uint32_t>*, bool) {
  g_wake_calls.fetch_add(1, std::memory_order_relaxed);
}

constexpr std::uint32_t kGraceRounds =
    FutexWait::kSpinRounds + FutexWait::kYieldRounds;

// ---- FutexWait: hook-driven determinism --------------------------------

// Each hook case runs once per addressable round kind: past the grace a
// watching round must yield and park exactly like a blind one.
void blind_round(FutexWait& pol, const std::atomic<std::uint32_t>& w,
                 std::uint32_t v) {
  pol.wait_while_equal(w, v);
}
void watching_round(FutexWait& pol, const std::atomic<std::uint32_t>& w,
                    std::uint32_t v) {
  pol.watch_while_equal(w, v);
}
using Round = void (*)(FutexWait&, const std::atomic<std::uint32_t>&,
                       std::uint32_t);

void survives_spurious_wakeups(Round round) {
  HookGuard guard({&scripted_park, &counting_wake});
  g_release_on_park = 3;  // two pure spurious wakes, then the real one

  std::atomic<std::uint32_t> word{0};
  const WaitStats before = thread_wait_stats();
  {
    // Bounded, so a round that never reaches the hook fails, not hangs.
    FutexWait pol;
    for (std::uint32_t i = 0;
         i < kGraceRounds + 8 && word.load(std::memory_order_acquire) == 0;
         ++i) {
      round(pol, word, 0);
    }
  }
  EXPECT_EQ(word.load(), 1u);
  // Rounds 1..kGraceRounds never touched the hook; then exactly three
  // parks: spurious, spurious, woken-for-real.
  EXPECT_EQ(g_park_calls.load(), 3);
  EXPECT_EQ(g_park_mismatches.load(), 0);

  const WaitStats d = thread_wait_stats() - before;
  EXPECT_EQ(d.parks, 3u);
  EXPECT_EQ(d.spins, (1u << FutexWait::kSpinRounds) - 1);  // 1+2+…+64
  EXPECT_EQ(d.yields, FutexWait::kYieldRounds);
}

TEST(FutexWaitHooks, SurvivesSpuriousWakeups) {
  survives_spurious_wakeups(&blind_round);
}

TEST(FutexWaitHooks, WatchSurvivesSpuriousWakeups) {
  survives_spurious_wakeups(&watching_round);
}

void lost_wake_ordering_never_sleeps(Round round) {
  HookGuard guard({&scripted_park, &counting_wake});

  std::atomic<std::uint32_t> word{0};
  FutexWait pol;
  // Burn the grace rounds while the word still holds the waited value —
  // no park happens yet.
  for (std::uint32_t i = 0; i < kGraceRounds; ++i) {
    round(pol, word, 0);
  }
  ASSERT_EQ(g_park_calls.load(), 0);

  // The lost-wake window: the waker releases AFTER our last user-space
  // check but BEFORE we park. The park must observe the changed word and
  // return immediately — this re-check is the property that makes
  // parking safe without a waiter count.
  word.store(1, std::memory_order_release);
  round(pol, word, 0);
  EXPECT_EQ(g_park_calls.load(), 1);
  EXPECT_EQ(g_park_mismatches.load(), 1);  // saw w != expected, never slept
}

TEST(FutexWaitHooks, LostWakeOrderingNeverSleeps) {
  lost_wake_ordering_never_sleeps(&blind_round);
}

TEST(FutexWaitHooks, WatchLostWakeOrderingNeverSleeps) {
  lost_wake_ordering_never_sleeps(&watching_round);
}

TEST(FutexWaitHooks, NotifyRoutesThroughWakeHookAndCounts) {
  HookGuard guard({&scripted_park, &counting_wake});

  std::atomic<std::uint32_t> word{0};
  const WaitStats before = thread_wait_stats();
  FutexWait::notify_one(word);
  FutexWait::notify_all(word);
  EXPECT_EQ(g_wake_calls.load(), 2);
  const WaitStats d = thread_wait_stats() - before;
  EXPECT_EQ(d.wakes, 2u);
}

void park_timeout_escalates_bounded_and_resets(Round round) {
  HookGuard guard({&timeout_recording_park, &counting_wake});

  std::atomic<std::uint32_t> word{0};
  FutexWait pol;
  const int kParks = 10;
  for (std::uint32_t i = 0; i < kGraceRounds + kParks; ++i) {
    round(pol, word, 0);
  }
  ASSERT_EQ(g_timeouts.size(), static_cast<std::size_t>(kParks));
  EXPECT_EQ(g_timeouts.front(), FutexWait::kMinParkTimeout);
  for (std::size_t i = 1; i < g_timeouts.size(); ++i) {
    EXPECT_GE(g_timeouts[i], g_timeouts[i - 1]);            // monotone
    EXPECT_LE(g_timeouts[i], g_timeouts[i - 1] * 2);        // ≤ doubling
    EXPECT_LE(g_timeouts[i], FutexWait::kMaxParkTimeout);   // bounded
  }
  EXPECT_EQ(g_timeouts.back(), FutexWait::kMaxParkTimeout);

  // reset() re-arms the whole schedule: grace rounds first, then a park
  // back at the minimum timeout.
  pol.reset();
  g_timeouts.clear();
  for (std::uint32_t i = 0; i < kGraceRounds + 1; ++i) {
    round(pol, word, 0);
  }
  ASSERT_EQ(g_timeouts.size(), 1u);
  EXPECT_EQ(g_timeouts.front(), FutexWait::kMinParkTimeout);
}

TEST(FutexWaitHooks, ParkTimeoutEscalatesBoundedAndResets) {
  park_timeout_escalates_bounded_and_resets(&blind_round);
}

TEST(FutexWaitHooks, WatchParkTimeoutEscalatesBoundedAndResets) {
  park_timeout_escalates_bounded_and_resets(&watching_round);
}

// ---- watching rounds ---------------------------------------------------

template <typename Policy>
void watch_on_a_moved_word_spins_nothing() {
  const std::atomic<std::uint32_t> word{1};
  const WaitStats before = thread_wait_stats();
  {
    Policy pol;
    for (std::uint32_t r = 0; r < Policy::kSpinRounds; ++r) {
      if (r % 2 == 0) {
        pol.watch_while_equal(word, 0);
      } else {
        pol.watch_until([] { return true; });
      }
    }
  }
  const WaitStats d = thread_wait_stats() - before;
  EXPECT_EQ(d.spins, 0u);
  EXPECT_EQ(d.yields, 0u);
  EXPECT_EQ(d.parks, 0u);
}

TEST(WatchingRound, WordThatAlreadyDiffersSpinsNothing) {
  watch_on_a_moved_word_spins_nothing<SpinWait>();
  watch_on_a_moved_word_spins_nothing<SpinYieldWait>();
  watch_on_a_moved_word_spins_nothing<FutexWait>();
}

TEST(WatchingRound, EndsOnThePauseItsPredicateHolds) {
  // Rounds 0..3 watch a predicate that never holds: 1+2+4+8 pauses. In
  // round 4 (16 pauses) it holds at its sixth check, after 5 pauses. The
  // round still counts as one: round 5 spins its full 32.
  const WaitStats before = thread_wait_stats();
  {
    SpinYieldWait pol;
    for (int r = 0; r < 4; ++r) pol.watch_until([] { return false; });
    int checks = 0;
    pol.watch_until([&checks] { return ++checks == 6; });
    EXPECT_EQ(checks, 6);
    pol.watch_until([] { return false; });
  }
  const WaitStats d = thread_wait_stats() - before;
  EXPECT_EQ(d.spins, 15u + 5u + 32u);
  EXPECT_EQ(d.yields, 0u);
}

TEST(WatchingRound, WordFlippedByAnotherThreadEndsTheRoundEarly) {
  // Round 6 is the grace's last and longest: 64 pauses. Another thread
  // flips the word as soon as the round is about to start, so the round
  // ends on the pause the flip lands, with fewer than 64 pauses. A
  // descheduled flipper can miss a round, so trials repeat until one
  // catches it or the deadline passes; a blind round never does.
  constexpr std::uint32_t kLast = SpinYieldWait::kSpinRounds - 1;
  constexpr std::uint64_t kEarlierSpins = (1u << kLast) - 1;
  std::atomic<std::uint32_t> word{0};
  std::atomic<int> go{-1};
  std::atomic<bool> stop{false};
  std::jthread flipper([&] {
    int flipped = -1;
    while (!stop.load(std::memory_order_acquire)) {
      const int t = go.load(std::memory_order_acquire);
      if (t != flipped) {
        word.store(1, std::memory_order_release);
        flipped = t;
      } else {
        cpu_relax();
      }
    }
  });
  bool early = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (int t = 0; !early && std::chrono::steady_clock::now() < deadline;
       ++t) {
    word.store(0, std::memory_order_relaxed);
    const WaitStats before = thread_wait_stats();
    {
      SpinYieldWait pol;
      for (std::uint32_t r = 0; r < kLast; ++r) {
        pol.watch_while_equal(word, 0);
      }
      go.store(t, std::memory_order_release);
      pol.watch_while_equal(word, 0);
    }
    const WaitStats d = thread_wait_stats() - before;
    EXPECT_EQ(d.yields, 0u);
    EXPECT_LE(d.spins, kEarlierSpins + (1u << kLast));
    early = d.spins < kEarlierSpins + (1u << kLast);
    while (word.load(std::memory_order_acquire) == 0) {
      std::this_thread::yield();
    }
  }
  stop.store(true, std::memory_order_release);
  EXPECT_TRUE(early);
}

TEST(WatchingRound, WatchUntilPastTheGraceIsAPause) {
  // A word a parking policy cannot address: past the grace the round
  // yields, then parks as a bounded timed sleep, exactly like pause().
  const WaitStats before = thread_wait_stats();
  {
    FutexWait pol;
    for (std::uint32_t i = 0; i < kGraceRounds + 1; ++i) {
      pol.watch_until([] { return false; });
    }
  }
  const WaitStats d = thread_wait_stats() - before;
  EXPECT_EQ(d.spins, (1u << FutexWait::kSpinRounds) - 1);
  EXPECT_EQ(d.yields, FutexWait::kYieldRounds);
  EXPECT_EQ(d.parks, 1u);
}

// ---- telemetry plumbing ------------------------------------------------

TEST(WaitTelemetry, WorkerCountsDrainAtThreadExit) {
  const WaitStats before = wait_stats_snapshot();
  std::thread t([] {
    SpinWait pol;
    for (int i = 0; i < 8; ++i) pol.pause();
    // No explicit flush: the policy's destructor flushes into the thread
    // record, and the thread's exit hook drains the record into the
    // process totals before join() returns.
  });
  t.join();
  const WaitStats d = wait_stats_snapshot() - before;
  // 1+2+4+…+64, then capped at 64: 191 pause instructions, all visible
  // after the join.
  EXPECT_EQ(d.spins, 191u);
}

TEST(WaitTelemetry, ResetFlushesIntoThreadStats) {
  const WaitStats before = thread_wait_stats();
  SpinYieldWait pol;
  pol.pause();
  EXPECT_EQ((thread_wait_stats() - before).spins, 0u);  // still policy-local
  pol.reset();
  EXPECT_GE((thread_wait_stats() - before).spins, 1u);  // flushed
}

// ---- EpisodeWait: the backoff-reset fix --------------------------------

struct CountingPolicy {
  static constexpr bool kParks = false;
  int pauses = 0;
  int resets = 0;
  void pause() noexcept { ++pauses; }
  void wait_while_equal(const std::atomic<std::uint32_t>&,
                        std::uint32_t) noexcept {
    ++pauses;
  }
  void watch_while_equal(const std::atomic<std::uint32_t>&,
                         std::uint32_t) noexcept {
    ++pauses;
  }
  template <typename Ready>
  void watch_until(Ready&&) noexcept {
    ++pauses;
  }
  void reset() noexcept { ++resets; }
  static void notify_one(std::atomic<std::uint32_t>&) noexcept {}
  static void notify_all(std::atomic<std::uint32_t>&) noexcept {}
};
static_assert(WaitPolicy<CountingPolicy>);

TEST(EpisodeWait, RearmsExactlyOnObservedStateChange) {
  CountingPolicy pol;
  EpisodeWait<CountingPolicy> ep(pol);

  ep.observe_and_pause(7);  // first observation: NO reset
  ep.observe_and_pause(7);  // same state: still the same episode
  ep.observe_and_pause(7);
  EXPECT_EQ(pol.resets, 0);
  EXPECT_EQ(pol.pauses, 3);

  ep.observe_and_pause(8);  // state moved: new episode, fresh schedule
  EXPECT_EQ(pol.resets, 1);
  ep.observe_and_pause(8);
  EXPECT_EQ(pol.resets, 1);
  ep.observe_and_pause(7);  // moved again (even back to an old value)
  EXPECT_EQ(pol.resets, 2);
  EXPECT_EQ(pol.pauses, 6);
}

// ---- queue locks: exclusion, distinct tickets, FIFO handoff ------------

/// N threads × M critical sections around one unguarded sequence counter:
/// every section must observe a DISTINCT ticket, and the merged set must
/// be exactly 0..N*M-1 (mutual exclusion, no lost updates). TSan covers
/// the handoff edges when run under -DKRS_SANITIZE=thread.
template <typename Lock>
void distinct_tickets(unsigned nthreads, int per_thread) {
  Lock lk;
  std::uint64_t seq = 0;  // guarded by lk only
  std::vector<std::vector<std::uint64_t>> seen(nthreads);
  std::vector<std::thread> threads;
  threads.reserve(nthreads);
  for (unsigned w = 0; w < nthreads; ++w) {
    threads.emplace_back([&, w] {
      seen[w].reserve(static_cast<std::size_t>(per_thread));
      for (int i = 0; i < per_thread; ++i) {
        typename Lock::Scoped g(lk);
        seen[w].push_back(seq++);
      }
    });
  }
  for (auto& t : threads) t.join();

  std::vector<std::uint64_t> all;
  for (const auto& v : seen) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), static_cast<std::size_t>(nthreads) * per_thread);
  for (std::size_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i], i);
}

TEST(McsLock, DistinctTickets) {
  for (unsigned n : {2u, 4u, 8u}) distinct_tickets<McsLock>(n, 2000);
}

TEST(ClhLock, DistinctTickets) {
  for (unsigned n : {2u, 4u, 8u}) distinct_tickets<ClhLock>(n, 2000);
}

TEST(ParkingLockTest, DistinctTicketsFutex) {
  for (unsigned n : {2u, 4u, 8u}) distinct_tickets<ParkingLock>(n, 2000);
}

/// Deterministic FIFO: the main thread HOLDS the lock, and thread i+1 is
/// spawned only after contended_acquires() proves thread i has enqueued
/// behind the held lock — so the queue order is exactly spawn order, and
/// the handoff order must match it.
TEST(McsLock, FifoHandoffUnderStagger) {
  for (unsigned nthreads : {2u, 4u, 8u}) {
    McsLock lk;
    McsLock::Node main_node;
    lk.lock(main_node);

    std::mutex order_mu;
    std::vector<unsigned> order;
    std::vector<std::thread> threads;
    threads.reserve(nthreads);
    for (unsigned i = 1; i <= nthreads; ++i) {
      threads.emplace_back([&, i] {
        McsLock::Node n;
        lk.lock(n);
        {
          std::lock_guard<std::mutex> g(order_mu);
          order.push_back(i);
        }
        lk.unlock(n);
      });
      while (lk.contended_acquires() < i) std::this_thread::yield();
    }
    lk.unlock(main_node);
    for (auto& t : threads) t.join();

    ASSERT_EQ(order.size(), nthreads);
    for (unsigned i = 0; i < nthreads; ++i) EXPECT_EQ(order[i], i + 1);
  }
}

TEST(ClhLock, FifoHandoffUnderStagger) {
  for (unsigned nthreads : {2u, 4u, 8u}) {
    ClhLock lk;
    std::optional<ClhLock::Scoped> main_hold(std::in_place, lk);

    std::mutex order_mu;
    std::vector<unsigned> order;
    std::vector<std::thread> threads;
    threads.reserve(nthreads);
    for (unsigned i = 1; i <= nthreads; ++i) {
      threads.emplace_back([&, i] {
        ClhLock::Scoped g(lk);
        std::lock_guard<std::mutex> og(order_mu);
        order.push_back(i);
      });
      while (lk.contended_acquires() < i) std::this_thread::yield();
    }
    main_hold.reset();
    for (auto& t : threads) t.join();

    ASSERT_EQ(order.size(), nthreads);
    for (unsigned i = 0; i < nthreads; ++i) EXPECT_EQ(order[i], i + 1);
  }
}

// ---- the parking mutex, oversubscribed (spin and real futex paths) -----

// max(8, 4 × cores) workers ≫ cores hammer one counter behind Lock, and
// every increment must land. With FutexWait contended waiters actually
// park (on Linux: real futex syscalls — no hooks installed here); with
// SpinWait they burn the quantum the preempted holder needs, which is
// slow but must still be correct.
template <typename Lock>
void oversubscribed_conservation() {
  const unsigned nthreads =
      std::max(8u, 4 * std::thread::hardware_concurrency());
  constexpr int kPerThread = 20'000;
  Lock lk;
  std::uint64_t counter = 0;  // guarded by lk only

  std::vector<std::thread> threads;
  threads.reserve(nthreads);
  for (unsigned w = 0; w < nthreads; ++w) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        typename Lock::Scoped g(lk);
        ++counter;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, static_cast<std::uint64_t>(nthreads) * kPerThread);
}

TEST(ParkingLockTest, OversubscribedConservation) {
  oversubscribed_conservation<BasicParkingLock<SpinWait>>();
  oversubscribed_conservation<ParkingLock>();
}

// ---- the software combiners, oversubscribed (spin-yield and parking) ----

// max(8, 4 × cores) workers on one cell of a combining backend. Every 7th
// op is a load + compare_exchange retry loop, so CAS-loop updates race
// the direct path and the combined ops. Every increment must land; then
// `check(stats, fetch_adds, compare_exchange calls)` checks the
// backend's own accounting.
template <typename Backend, typename Check>
void combiner_oversubscribed_conservation(Check check) {
  const unsigned nthreads =
      std::max(8u, 4 * std::thread::hardware_concurrency());
  constexpr int kPerThread = 20'000;
  Backend b;
  typename Backend::Cell c(b, 0);
  std::atomic<std::uint64_t> fetch_adds{0};
  std::atomic<std::uint64_t> cas_calls{0};

  std::vector<std::thread> threads;
  threads.reserve(nthreads);
  for (unsigned w = 0; w < nthreads; ++w) {
    threads.emplace_back([&] {
      std::uint64_t adds = 0;
      std::uint64_t cas = 0;
      for (int i = 0; i < kPerThread; ++i) {
        if (i % 7 == 6) {
          Word e = b.load(c);
          for (++cas; !b.compare_exchange(c, e, e + 1); ++cas) {
          }
        } else {
          b.fetch_add(c, 1);
          ++adds;
        }
      }
      fetch_adds.fetch_add(adds, std::memory_order_relaxed);
      cas_calls.fetch_add(cas, std::memory_order_relaxed);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(b.load(c), static_cast<Word>(nthreads) * kPerThread);
  check(b.cell_stats(c), fetch_adds.load(), cas_calls.load());
}

// A preempted combiner or publisher must never strand a waiter, and with
// FutexWait the parked owners of slots a pass-cap handoff left pending
// must be woken (wake_pending) or ride out their park timeout. `ops`
// counts exactly the fetch_adds (compare_exchange is not a counted op).
template <typename Policy>
void flat_oversubscribed_conservation() {
  combiner_oversubscribed_conservation<
      BasicFlatCombiningBackend<krs::analysis::DefaultInstrument, Policy>>(
      [](const FlatCombinerStats& st, std::uint64_t fetch_adds,
         std::uint64_t) { EXPECT_EQ(st.ops, fetch_adds); });
}

TEST(FlatCombinerParking, OversubscribedConservation) {
  flat_oversubscribed_conservation<SpinYieldWait>();
  flat_oversubscribed_conservation<FutexWait>();
}

// A first waiting in its collision window holds the seconds that engaged
// on its path, so a preempted first stalls them until it runs again — it
// must never lose one. Every fetch_add is served exactly once, folded
// below the root or applied there, and each compare_exchange is one
// update(), counted apart from the fetch_adds.
template <typename Policy>
void tree_oversubscribed_conservation() {
  combiner_oversubscribed_conservation<
      BasicCombiningBackend<krs::analysis::DefaultInstrument, Policy>>(
      [](const CombiningTreeStats& st, std::uint64_t fetch_adds,
         std::uint64_t cas_calls) {
        EXPECT_EQ(st.folds + st.root_applies, fetch_adds);
        EXPECT_EQ(st.serialized_updates, cas_calls);
      });
}

TEST(CombiningTreeParking, OversubscribedConservation) {
  tree_oversubscribed_conservation<SpinYieldWait>();
  tree_oversubscribed_conservation<FutexWait>();
}

// ---- the combining-tree barrier under each wait policy -----------------

template <typename Policy>
void barrier_rounds(unsigned nthreads, int rounds) {
  BasicTreeBarrier<krs::analysis::DefaultInstrument, Policy> bar(nthreads);
  std::vector<std::uint64_t> slot(nthreads, 0);  // one writer each
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  threads.reserve(nthreads);
  for (unsigned me = 0; me < nthreads; ++me) {
    threads.emplace_back([&, me] {
      bool sense = false;  // callers start false; the barrier flips it
      for (int r = 0; r < rounds; ++r) {
        ++slot[me];
        bar.arrive_and_wait(me, sense);
        if (me == 0) {
          for (unsigned j = 0; j < nthreads; ++j) {
            if (slot[j] != static_cast<std::uint64_t>(r) + 1) {
              bad.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
        bar.arrive_and_wait(me, sense);  // hold everyone until the check ran
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST(TreeBarrier, PhasesSpinYield) {
  barrier_rounds<SpinYieldWait>(4, 200);
}

TEST(TreeBarrier, PhasesFutexParked) {
  barrier_rounds<FutexWait>(4, 200);
}

// ---- LockBackend as an RmwBackend substrate ----------------------------

template <typename Lock>
void lock_backend_ops() {
  LockBackend<Lock> b;
  typename LockBackend<Lock>::Cell c(b, 5);
  EXPECT_EQ(b.fetch_add(c, 3), 5u);
  EXPECT_EQ(b.exchange(c, 100), 8u);
  Word expected = 99;
  EXPECT_FALSE(b.compare_exchange(c, expected, 1));
  EXPECT_EQ(expected, 100u);
  EXPECT_TRUE(b.compare_exchange(c, expected, 1));
  EXPECT_EQ(b.load(c), 1u);
  b.store(c, 42);
  EXPECT_EQ(b.fetch_or(c, 1), 42u);
  EXPECT_EQ(b.load(c), 43u);
}

TEST(LockBackendTest, OpsUnderEveryLock) {
  lock_backend_ops<McsLock>();
  lock_backend_ops<ClhLock>();
  lock_backend_ops<ParkingLock>();
  lock_backend_ops<BasicParkingLock<SpinWait>>();
}

TEST(LockBackendTest, ConcurrentFetchAddConserves) {
  LockBackend<McsLock> b;
  LockBackend<McsLock>::Cell c(b, 0);
  constexpr unsigned kThreads = 4;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned w = 0; w < kThreads; ++w) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) b.fetch_add(c, 1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(b.load(c), static_cast<Word>(kThreads) * kPerThread);
}

}  // namespace
