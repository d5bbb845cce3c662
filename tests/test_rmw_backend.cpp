// Regression pins for the two backend-seam defects fixed alongside the
// sim backend:
//
//  * BasicAtomicBackend::fetch_rmw used to spin a BARE
//    compare_exchange_weak loop — the §1 hot-spot storm in miniature. The
//    emulation now lives in detail::paced_cas_rmw, templated over the
//    atomic and the backoff policy, so the pacing contract (exactly one
//    pause per failed CAS, fresh schedule per call) is pinned here with a
//    scripted flaky atomic; the real backend is then hammered at 4/8
//    threads for the ticket invariants.
//  * thread_ordinal() used to hand out ordinals monotonically and never
//    reclaim them, so a churny process marched every live thread onto
//    ever-higher combining-tree slots (all aliasing mod width). Ordinals
//    are now pooled: sequential spawn/join churn must reuse ONE ordinal,
//    and concurrent threads must still get distinct ones. The tenancy
//    ends in the exit hook, after the thread's C++ thread_local
//    destructors: both sides of that boundary are pinned.
//
// Also pinned: AtomicBackend::fetch_rmw runs the native instruction for
// every family that has one, so a generic fetch_rmw(FetchAdd) never
// enters the paced CAS loop — directly and under ShardedBackend.
#include <gtest/gtest.h>
#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <set>
#include <thread>
#include <vector>

#include "core/any_rmw.hpp"
#include "core/fetch_theta.hpp"
#include "runtime/rmw_backend.hpp"
#include "runtime/sharded_backend.hpp"

namespace {

using namespace krs::runtime;
using krs::core::AnyRmw;
using krs::core::FetchAdd;
using krs::core::FetchOr;

// --- the pacing contract of the CAS emulation --------------------------------

// A scripted "atomic" whose CAS fails a fixed number of times, mutating
// the word in between — deterministic interference.
struct FlakyWord {
  Word value;
  int failures_left;

  [[nodiscard]] Word load(std::memory_order) const { return value; }

  bool compare_exchange_weak(Word& expected, Word desired, std::memory_order,
                             std::memory_order) {
    if (failures_left > 0) {
      --failures_left;
      ++value;  // another "thread" slipped a mutation in
      expected = value;
      return false;
    }
    if (expected != value) {
      expected = value;
      return false;
    }
    value = desired;
    return true;
  }
};

struct CountingBackoff {
  int* pauses;
  void pause() { ++*pauses; }
  void reset() {}
};

TEST(PacedCasRmw, OnePausePerFailedCas) {
  // k scripted failures must cost exactly k backoff pauses — no pause on
  // the success, no unpaced retry. This is the regression the bare loop
  // failed: zero pauses at any contention level.
  for (const int k : {0, 1, 3, 17}) {
    FlakyWord w{100, k};
    int pauses = 0;
    const Word prior =
        detail::paced_cas_rmw(w, AnyRmw(FetchAdd(5)), CountingBackoff{&pauses});
    EXPECT_EQ(pauses, k);
    // The applied old value is the one the successful CAS replaced: the
    // initial value plus one scripted interference per failure.
    EXPECT_EQ(prior, 100u + static_cast<Word>(k));
    EXPECT_EQ(w.value, 100u + static_cast<Word>(k) + 5u);
  }
}

TEST(PacedCasRmw, FreshScheduleEveryCall) {
  // The backoff schedule must reset per call: a second call after a
  // heavily contended one starts from the shortest pause again. Pinned
  // through the default SpinYieldWait via the default argument path.
  FlakyWord w{0, 40};
  (void)detail::paced_cas_rmw(w, AnyRmw(FetchAdd(1)));  // contended call
  int pauses = 0;
  (void)detail::paced_cas_rmw(w, AnyRmw(FetchAdd(1)),
                              CountingBackoff{&pauses});
  EXPECT_EQ(pauses, 0);  // uncontended follow-up: no pause at all
}

TEST(AtomicBackendContention, FetchRmwTicketsAt4And8Threads) {
  // The real backend path under real contention: every prior is a ticket;
  // the union must be exactly 0..N-1 with per-thread monotonicity.
  for (const unsigned nt : {4u, 8u}) {
    AtomicBackend b;
    AtomicBackend::Cell cell(b, 0);
    constexpr unsigned kPer = 300;
    std::vector<std::vector<Word>> got(nt);
    {
      std::vector<std::jthread> ts;
      for (unsigned t = 0; t < nt; ++t) {
        ts.emplace_back([&, t] {
          for (unsigned i = 0; i < kPer; ++i) {
            got[t].push_back(b.fetch_rmw(cell, AnyRmw(FetchAdd(1))));
          }
        });
      }
    }
    std::set<Word> all;
    for (const auto& v : got) {
      EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
      all.insert(v.begin(), v.end());
    }
    EXPECT_EQ(all.size(), static_cast<std::size_t>(nt) * kPer);
    EXPECT_EQ(*all.rbegin(), static_cast<Word>(nt) * kPer - 1);
    EXPECT_EQ(b.load(cell), static_cast<Word>(nt) * kPer);
  }
}

// --- native dispatch of fetch_rmw ---------------------------------------------

// kThreads threads each issue kPer (FetchAdd(1), FetchOr(0)) pairs through
// the generic fetch_rmw; returns each thread's wait-work delta.
template <typename B>
std::vector<WaitStats> hammer_native_families(const B& b,
                                              typename B::Cell& cell,
                                              unsigned threads, unsigned per) {
  std::vector<WaitStats> waited(threads);
  std::vector<std::jthread> ts;
  for (unsigned t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] {
      const WaitStats before = thread_wait_stats();
      for (unsigned i = 0; i < per; ++i) {
        (void)b.fetch_rmw(cell, AnyRmw(FetchAdd(1)));
        (void)b.fetch_rmw(cell, AnyRmw(FetchOr(0)));
      }
      waited[t] = thread_wait_stats() - before;
    });
  }
  ts.clear();  // join
  return waited;
}

TEST(AtomicBackendNative, FetchRmwOfNativeFamiliesNeverPaces) {
  // A family with a hardware instruction never reaches the CAS emulation,
  // so no thread pays a single backoff round however hot the word is.
  constexpr unsigned kThreads = 4;
  constexpr unsigned kPer = 200'000;
  constexpr Word kTotal = Word{kThreads} * kPer;
  {
    AtomicBackend b;
    AtomicBackend::Cell cell(b, 0);
    for (const WaitStats& w : hammer_native_families(b, cell, kThreads, kPer)) {
      EXPECT_EQ(w.spins, 0u);
      EXPECT_EQ(w.yields, 0u);
    }
    EXPECT_EQ(b.load(cell), kTotal);
  }
  {
    ShardedBackend<AtomicBackend> b{AtomicBackend{}, 1};
    ShardedBackend<AtomicBackend>::Cell cell(b, 0);
    for (const WaitStats& w : hammer_native_families(b, cell, kThreads, kPer)) {
      EXPECT_EQ(w.spins, 0u);
      EXPECT_EQ(w.yields, 0u);
    }
    EXPECT_EQ(b.load(cell), kTotal);
  }
}

// --- ordinal reclamation ------------------------------------------------------

TEST(ThreadOrdinal, SequentialChurnReusesOneOrdinal) {
  // 64 spawn/join cycles: each thread's exit hook returns its ordinal to
  // the pool (the hook runs before join() returns), so every successor
  // must reacquire the SAME ordinal. Pre-fix this walked 0,1,2,...,63 —
  // far past any tree width.
  std::set<unsigned> seen;
  for (int i = 0; i < 64; ++i) {
    std::jthread([&] { seen.insert(thread_ordinal()); }).join();
  }
  EXPECT_EQ(seen.size(), 1u);
  EXPECT_LT(*seen.begin(), 8u);  // bounded by peak live threads, not churn
}

// The pool's rule, on a local instance with no thread started: the
// smallest free ordinal leaves first; below kCapacity a released ordinal
// is reused, and at or above it release drops the ordinal and the counter
// hands out fresh ones.
TEST(ThreadOrdinal, PoolReusesBelowCapacityAndCountsOnPastIt) {
  constexpr unsigned kCap = detail::OrdinalPool::kCapacity;
  detail::OrdinalPool pool;
  for (unsigned o = 0; o < kCap; ++o) ASSERT_EQ(pool.acquire(), o);
  pool.release(7);
  pool.release(3);
  pool.release(kCap - 1);
  EXPECT_EQ(pool.acquire(), 3u);
  EXPECT_EQ(pool.acquire(), 7u);
  EXPECT_EQ(pool.acquire(), kCap - 1);
  // Capacity exhausted: fresh ordinals past it, never reused.
  EXPECT_EQ(pool.acquire(), kCap);
  pool.release(kCap);
  EXPECT_EQ(pool.acquire(), kCap + 1);
  pool.release(0);
  EXPECT_EQ(pool.acquire(), 0u);  // a free one below the capacity wins
  EXPECT_EQ(pool.acquire(), kCap + 2);
}

TEST(ThreadOrdinal, ConcurrentThreadsGetDistinctDenseOrdinals) {
  // 8 threads held live simultaneously: ordinals must be pairwise
  // distinct (correctness: two live threads may never share a slot
  // spuriously) and dense — bounded by the peak live-thread count, not by
  // how many threads ever existed.
  constexpr unsigned kThreads = 8;
  std::barrier sync(kThreads);
  std::vector<unsigned> ord(kThreads);
  {
    std::vector<std::jthread> ts;
    for (unsigned t = 0; t < kThreads; ++t) {
      ts.emplace_back([&, t] {
        ord[t] = thread_ordinal();
        sync.arrive_and_wait();  // all guards live at once
      });
    }
  }
  const std::set<unsigned> uniq(ord.begin(), ord.end());
  EXPECT_EQ(uniq.size(), kThreads);
  // Dense: with at most main + kThreads guards ever live at once, no
  // ordinal can reach kThreads + 1.
  EXPECT_LE(*uniq.rbegin(), kThreads);
}

TEST(ThreadOrdinal, ConcurrentChurnNeverSharesAnOrdinal) {
  // 8 drivers each start and join 100 threads in turn, so at most 8
  // threads hold ordinals at once while starts and exits overlap. Each
  // live thread claims its ordinal's owner flag; a claim that finds the
  // flag already set means two live threads hold one ordinal.
  constexpr unsigned kDrivers = 8;
  constexpr unsigned kRounds = 100;
  constexpr unsigned kCap = detail::OrdinalPool::kCapacity;
  std::vector<std::atomic<bool>> owned(kCap);
  std::atomic<unsigned> shared{0};
  std::atomic<unsigned> past_capacity{0};
  {
    std::vector<std::jthread> drivers;
    for (unsigned d = 0; d < kDrivers; ++d) {
      drivers.emplace_back([&] {
        for (unsigned r = 0; r < kRounds; ++r) {
          std::jthread([&] {
            const unsigned o = thread_ordinal();
            if (o >= kCap) {
              past_capacity.fetch_add(1);
              return;
            }
            if (owned[o].exchange(true)) shared.fetch_add(1);
            std::this_thread::yield();
            owned[o].store(false);
          }).join();
        }
      });
    }
  }
  EXPECT_EQ(shared.load(), 0u);
  EXPECT_EQ(past_capacity.load(), 0u);
}

// A C++ thread_local destructor runs before the exit hook (glibc calls
// the key destructors last), so it runs inside the tenancy.
struct TenantProbe {
  unsigned* seen = nullptr;
  SlotCounter* counter = nullptr;
  ~TenantProbe() {
    if (seen == nullptr) return;
    *seen = thread_ordinal();
    counter->add_one(*seen);
    SpinWait pol;
    for (int i = 0; i < 3; ++i) pol.pause();  // 1+2+4 pauses
  }
};

TEST(ThreadOrdinal, ThreadLocalDestructorsRunInsideTheTenancy) {
  // No other thread can hold the ordinal yet, so the destructor reads the
  // live ordinal, counts as the slot's owner, and its wait counts drain
  // with the rest of the thread's.
  unsigned held = kNoOrdinal;
  unsigned seen = kNoOrdinal;
  SlotCounter counter;
  const WaitStats before = wait_stats_snapshot();
  std::jthread([&] {
    thread_local TenantProbe probe;
    probe.seen = &seen;
    probe.counter = &counter;
    held = thread_ordinal();
  }).join();
  EXPECT_NE(held, kNoOrdinal);
  EXPECT_EQ(seen, held);
  EXPECT_EQ(counter.own.load(), 1u);
  EXPECT_EQ(counter.shared.load(), 0u);
  EXPECT_EQ((wait_stats_snapshot() - before).spins, 7u);
}

// A thread-specific-data destructor that re-arms its key once and probes
// on its second call. glibc calls every armed key's destructor on each
// pass, so by the second pass the exit hook has run, whatever the order
// of the two keys.
struct AfterHookProbe {
  pthread_key_t key{};
  bool rearmed = false;
  unsigned slot = 0;
  unsigned seen = 0;
  SlotCounter counter;

  static void on_exit(void* p) {
    auto& probe = *static_cast<AfterHookProbe*>(p);
    if (!probe.rearmed) {
      probe.rearmed = true;
      pthread_setspecific(probe.key, p);
      return;
    }
    probe.seen = thread_ordinal();
    probe.counter.add_one(probe.slot);
    SpinWait pol;
    for (int i = 0; i < 3; ++i) pol.pause();  // 1+2+4 pauses
  }
};

TEST(ThreadOrdinal, NoOrdinalOutlivesTheTenancy) {
  // After the exit hook has returned the ordinal to the pool, another
  // thread may hold it, so the exiting thread must read kNoOrdinal and
  // count on the shared word, never as the slot's owner. A wait flushed
  // after the hook re-arms it, so those counts still drain by join().
  AfterHookProbe probe;
  ASSERT_EQ(pthread_key_create(&probe.key, AfterHookProbe::on_exit), 0);
  const WaitStats before = wait_stats_snapshot();
  std::jthread([&] {
    probe.slot = thread_ordinal();
    pthread_setspecific(probe.key, &probe);
  }).join();
  pthread_key_delete(probe.key);
  EXPECT_NE(probe.slot, kNoOrdinal);
  EXPECT_TRUE(probe.rearmed);
  EXPECT_EQ(probe.seen, kNoOrdinal);
  EXPECT_EQ(probe.counter.own.load(), 0u);
  EXPECT_EQ(probe.counter.shared.load(), 1u);
  EXPECT_EQ((wait_stats_snapshot() - before).spins, 7u);
  // The ordinal went back to the pool: the next thread takes it again.
  unsigned next = kNoOrdinal;
  std::jthread([&] { next = thread_ordinal(); }).join();
  EXPECT_EQ(next, probe.slot);
}

TEST(ThreadOrdinal, StableWithinAThread) {
  std::jthread([] {
    const unsigned a = thread_ordinal();
    const unsigned b = thread_ordinal();
    EXPECT_EQ(a, b);
  }).join();
}

}  // namespace
