// The flat combiner (runtime/flat_combining.hpp) and the combining tree's
// fixed slot layout:
//
//  * deterministic single-caller waves pinning the batch semantics: one
//    publication scan serves every pending op with the §3 decombination
//    chain (each reply = the running prior), across mixed mapping
//    families — flat combining needs no compose, so nothing declines;
//  * the direct path: a lone caller's CAS on the value word always lands,
//    so it never publishes, elects or scans;
//  * the combiner-handoff path driven DETERMINISTICALLY: a test
//    Instrument hook publishes into an already-scanned slot mid-pass, so
//    the pass cap fires with work still pending and the handoff counter
//    must tick;
//  * the election window: a collided op waits exactly kElectAfterRounds
//    rounds of its wait policy before it elects itself (scripted, and
//    under SpinYieldWait and FutexWait), a combiner arriving in that
//    window serves it with no takeover of its own, and an op a peer
//    serves in its window stops waiting on the pause the reply lands;
//  * the counters the serving pass keeps: an op a peer served before its
//    own election counts as combined, and under threads every op is a
//    direct apply or a served one, exactly;
//  * concurrent hotspot-counter invariants (distinct tickets, per-thread
//    monotonicity, exact final sum) at 2/4/8 threads, plus quiesced
//    stats accounting;
//  * the lost-update guard: compare_exchange interleaved with direct,
//    all-fetch_add and CAS-loop batches must never drop an increment;
//  * exact per-slot counts when eight threads alias two slots of a tree
//    and of a flat combiner, and when slot owners, aliased ordinals and
//    spawn/join churn that reuses ordinals all count on both backends;
//  * instrumented HB edges through FlatCombiningBackend (the same
//    temporally-separated-ops experiment the other backends pass);
//  * race_explorer models of the publication handshake (claim → publish
//    → serve → pickup) and of a direct CAS racing a batch on the value
//    word, each with a control proving the clean verdict comes from the
//    modeled edges;
//  * the tree's slot→leaf pairing, pinned through its deterministic wave:
//    slots 2i and 2i+1 fold at their shared leaf, other pairs do not;
//  * the relaxed MappingCombiningTree width precondition: odd widths
//    round up internally and stay correct.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <latch>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "analysis/instrument.hpp"
#include "core/any_rmw.hpp"
#include "core/fetch_theta.hpp"
#include "core/load_store_swap.hpp"
#include "runtime/combining_backend.hpp"
#include "runtime/combining_tree.hpp"
#include "runtime/flat_combining.hpp"
#include "runtime/thread_ordinal.hpp"
#include "runtime/wait_policy.hpp"
#include "verify/race_explorer.hpp"

#include "test_peers.hpp"

namespace {

using namespace krs::runtime;
using krs::analysis::GlobalInstrument;
using krs::analysis::NoInstrument;
using krs::core::AnyRmw;
using krs::core::FetchAdd;
using krs::core::FetchOr;
using krs::core::LssOp;
using krs::core::Word;
using Peer = FlatCombinerTestPeer;

// The instrumentation policy must add no per-object state.
static_assert(sizeof(FlatCombiner<NoInstrument>) ==
              sizeof(FlatCombiner<GlobalInstrument>));

// --- deterministic wave semantics -------------------------------------------

using Fc = FlatCombiner<NoInstrument>;

TEST(FlatCombinerWave, OnePassBatchesAndDecombines) {
  // Four adds in one wave: the combiner reads the value once, serves the
  // slots in index order, writes the value once; each reply is the
  // running prior — the decombination chain ⟨id2, f(val)⟩ computed flat.
  Fc fc(4, 100);
  std::vector<Fc::WaveOp> wave;
  for (unsigned s = 0; s < 4; ++s) {
    wave.push_back({s, AnyRmw(FetchAdd(1))});
  }
  const auto priors = fc.run_wave(wave);
  EXPECT_EQ(priors, (std::vector<Word>{100, 101, 102, 103}));
  EXPECT_EQ(fc.read(), 104u);
  const FlatCombinerStats st = fc.stats();
  EXPECT_EQ(st.ops, 4u);
  EXPECT_EQ(st.takeovers, 1u);  // one election for the whole batch
  EXPECT_EQ(st.passes, 2u);     // serving pass + the empty closing pass
  EXPECT_EQ(st.handoffs, 0u);
  EXPECT_EQ(st.combined, 0u);  // single caller: nobody was served by a peer
  EXPECT_EQ(st.direct_applies, 0u);  // a wave always publishes
}

TEST(FlatCombinerWave, MixedFamiliesEqualSerialFold) {
  // Flat combining never composes mappings, so a mixed-family batch is
  // simply the serial fold in slot order — no decline path exists (§7's
  // cost shows up in the tree, not here).
  Fc fc(4, 10);
  const std::vector<Fc::WaveOp> wave{
      {0, AnyRmw(FetchAdd(5))},      // 10 → 15, prior 10
      {1, AnyRmw(FetchOr(0xF0))},    // 15 → 0xFF, prior 15
      {2, AnyRmw(LssOp::swap(3))},   // 0xFF → 3, prior 0xFF
      {3, AnyRmw(FetchAdd(1))},      // 3 → 4, prior 3
  };
  const auto priors = fc.run_wave(wave);
  EXPECT_EQ(priors, (std::vector<Word>{10, 15, 0xFF, 3}));
  EXPECT_EQ(fc.read(), 4u);
  EXPECT_EQ(fc.stats().direct_applies, 0u);
}

TEST(FlatCombinerWave, SparseWaveServesOnlyPublishedSlots) {
  Fc fc(8, 0);
  const std::vector<Fc::WaveOp> wave{
      {2, AnyRmw(FetchAdd(7))},
      {5, AnyRmw(FetchAdd(11))},
  };
  const auto priors = fc.run_wave(wave);
  EXPECT_EQ(priors, (std::vector<Word>{0, 7}));
  EXPECT_EQ(fc.read(), 18u);
  EXPECT_EQ(fc.stats().ops, 2u);
  EXPECT_EQ(fc.stats().direct_applies, 0u);
}

// --- the direct path ----------------------------------------------------------

TEST(FlatCombinerTelemetry, LoneCallerAlwaysLandsTheDirectCas) {
  // Nothing races a lone caller's CAS on the value word, so every
  // operation applies directly: no publication, election or scan.
  Fc fc(4, 0);
  constexpr unsigned kN = 100;
  for (unsigned i = 0; i < kN; ++i) {
    EXPECT_EQ(fc.fetch_rmw(i, AnyRmw(FetchAdd(2))), 2 * static_cast<Word>(i));
  }
  EXPECT_EQ(fc.read(), 2 * static_cast<Word>(kN));
  const FlatCombinerStats st = fc.stats();
  EXPECT_EQ(st.direct_applies, kN);
  EXPECT_EQ(st.ops, kN);
  EXPECT_EQ(st.takeovers, 0u);
  EXPECT_EQ(st.passes, 0u);
  EXPECT_EQ(st.combined, 0u);
  EXPECT_DOUBLE_EQ(st.direct_rate(), 1.0);
}

// --- the handoff path, deterministically -------------------------------------

// Instrument policy whose shared_load/shared_store hooks run test
// callbacks: the only way to land a publication into an ALREADY-SCANNED
// slot mid-pass from a single thread (the pass cap's handoff branch), or
// to observe the combiner's state at the instant a reply publishes.
struct HookInstrument {
  static constexpr bool enabled = false;
  static inline std::function<void(const void*)> on_shared_load;
  static inline std::function<void(const void*)> on_shared_store;
  static void acquire(const void*) {}
  static void release(const void*) {}
  static void contended_rmw(const void*, krs::analysis::AccessSite = {}) {}
  static void shared_load(const void* addr, krs::analysis::AccessSite = {}) {
    if (on_shared_load) on_shared_load(addr);
  }
  static void shared_store(const void* addr, krs::analysis::AccessSite = {}) {
    if (on_shared_store) on_shared_store(addr);
  }
};

TEST(FlatCombinerHandoff, PassCapWithPendingWorkCountsAHandoff) {
  using HFc = FlatCombiner<HookInstrument>;
  HFc fc(2, 0, /*max_passes=*/1);
  // While the combiner scans slot 1's seq, publish into slot 0 — already
  // passed over, so it stays pending when the single allowed pass ends.
  bool injected = false;
  HookInstrument::on_shared_load = [&](const void* addr) {
    if (!injected && addr == fc.slot_address(1)) {
      injected = true;
      Peer::publish(fc, 0, AnyRmw(FetchAdd(5)));
    }
  };
  Peer::publish(fc, 1, AnyRmw(FetchAdd(3)));
  ASSERT_TRUE(Peer::lock(fc));
  Peer::combine(fc);  // pass 1 serves slot 1; cap forces exit with 0 pending
  Peer::unlock(fc);
  HookInstrument::on_shared_load = nullptr;

  EXPECT_TRUE(injected);
  EXPECT_TRUE(Peer::pending(fc, 0));  // the handed-off op
  FlatCombinerStats st = fc.stats();
  EXPECT_EQ(st.takeovers, 1u);
  EXPECT_EQ(st.passes, 1u);
  EXPECT_EQ(st.handoffs, 1u);
  EXPECT_EQ(st.direct_applies, 0u);  // the peer publishes, never CASes
  EXPECT_EQ(Peer::take(fc, 1), 0u);

  // The next tenure (whoever wins the lock) drains the leftover — handoff
  // rotates the combiner, it never strands work.
  ASSERT_TRUE(Peer::lock(fc));
  Peer::combine(fc);
  Peer::unlock(fc);
  EXPECT_EQ(Peer::take(fc, 0), 3u);  // served after slot 1's add
  EXPECT_EQ(fc.read(), 8u);
  st = fc.stats();
  EXPECT_EQ(st.takeovers, 2u);
  EXPECT_EQ(st.handoffs, 1u);
  EXPECT_EQ(st.direct_applies, 0u);
}

// --- the election window -----------------------------------------------------

using SFc = FlatCombiner<NoInstrument, ScriptedWait>;

TEST(FlatCombinerElection, LonePublisherWaitsTheWindowThenServesItself) {
  // Nobody serves a lone publisher, so it waits out the whole window in
  // its slot and then wins the lock at its first try.
  SFc fc(2, 10);
  ScriptedWait::waits = 0;
  EXPECT_EQ(Peer::collide(fc, 0, AnyRmw(FetchAdd(3))), 10u);
  EXPECT_EQ(ScriptedWait::waits, SFc::kElectAfterRounds);
  EXPECT_EQ(fc.read(), 13u);
  const FlatCombinerStats st = fc.stats();
  EXPECT_EQ(st.ops, 1u);
  EXPECT_EQ(st.takeovers, 1u);
  EXPECT_EQ(st.combined, 0u);  // self-served
  EXPECT_EQ(st.direct_applies, 0u);
}

TEST(FlatCombinerElection, OpPublishedUnderAPeersLockIsServedInItsWindow) {
  // The op publishes while a peer holds the lock, as a tenure whose last
  // pass scanned slot 0 before the publication landed. That tenure ends
  // at the first wait without serving it. A second thread's CAS then
  // loses: it publishes, elects itself and serves both slots, all inside
  // the op's window, so the op never takes the lock.
  SFc fc(2, 0);
  ScriptedWait::waits = 0;
  ASSERT_TRUE(Peer::lock(fc));
  ScriptedWait::on_wait = [&](unsigned w) {
    if (w == 0) Peer::unlock(fc);
    if (w == SFc::kElectAfterRounds - 1) {
      Peer::publish(fc, 1, AnyRmw(FetchAdd(5)));
      ASSERT_TRUE(Peer::lock(fc));
      Peer::combine(fc, 1);
      Peer::unlock(fc);
    }
  };
  EXPECT_EQ(Peer::collide(fc, 0, AnyRmw(FetchAdd(3))), 0u);
  ScriptedWait::on_wait = nullptr;
  EXPECT_EQ(ScriptedWait::waits, SFc::kElectAfterRounds);
  EXPECT_EQ(Peer::take(fc, 1), 3u);
  EXPECT_EQ(fc.read(), 8u);
  const FlatCombinerStats st = fc.stats();
  EXPECT_EQ(st.ops, 2u);
  EXPECT_EQ(st.takeovers, 1u);  // the second thread's, none of the op's
  EXPECT_EQ(st.combined, 1u);   // the op, served by that tenure
}

// Under a shipped policy a lone publisher's window is its first
// kElectAfterRounds rounds: 1+2+…+2^(k-1) pauses, no yield, no park.
template <typename Policy>
void lone_publisher_spins_the_window() {
  using PFc = FlatCombiner<NoInstrument, Policy>;
  PFc fc(2, 10);
  const WaitStats before = thread_wait_stats();
  EXPECT_EQ(Peer::collide(fc, 0, AnyRmw(FetchAdd(3))), 10u);
  const WaitStats d = thread_wait_stats() - before;
  EXPECT_EQ(d.spins, (1u << PFc::kElectAfterRounds) - 1);
  EXPECT_EQ(d.yields, 0u);
  EXPECT_EQ(d.parks, 0u);
  EXPECT_EQ(fc.stats().takeovers, 1u);
}

TEST(FlatCombinerElection, WindowIsSpinGraceUnderBothShippedPolicies) {
  lone_publisher_spins_the_window<SpinYieldWait>();
  lone_publisher_spins_the_window<FutexWait>();
}

// A peer thread holds the lock and serves slot 0 as soon as it is
// published, so the op is served inside its election window (its
// try_lock would fail anyway). The reply lands at no particular pause: a
// watching wait ends mid-round, under 63 spins, in some trial; a blind
// one always ends on a round boundary. Trials repeat until one ends
// mid-round in the window (a descheduled peer can serve an op late) or
// the deadline passes.
template <typename Policy>
void served_op_stops_waiting_on_the_reply() {
  using PFc = FlatCombiner<NoInstrument, Policy>;
  constexpr std::uint64_t kWindowSpins = (1u << PFc::kElectAfterRounds) - 1;
  constexpr int kMinTrials = 20;
  PFc fc(2, 0);
  std::atomic<bool> locked{false};
  std::atomic<bool> done{false};
  std::jthread peer([&] {
    EXPECT_TRUE(Peer::lock(fc));
    locked.store(true, std::memory_order_release);
    // One tenure may serve two trials: its next pass can find the op
    // published right after the previous reply.
    while (!done.load(std::memory_order_acquire)) {
      if (Peer::pending(fc, 0)) {
        Peer::combine(fc);
      } else {
        cpu_relax();
      }
    }
    Peer::unlock(fc);
  });
  while (!locked.load(std::memory_order_acquire)) std::this_thread::yield();
  int trials = 0;
  int mid_round_in_window = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((trials < kMinTrials || mid_round_in_window == 0) &&
         std::chrono::steady_clock::now() < deadline) {
    const int t = trials++;
    const WaitStats before = thread_wait_stats();
    EXPECT_EQ(Peer::collide(fc, 0, AnyRmw(FetchAdd(1))),
              static_cast<Word>(t));
    const WaitStats d = thread_wait_stats() - before;
    if (d.spins < kWindowSpins && !ends_on_a_round_boundary(d.spins)) {
      ++mid_round_in_window;
    }
  }
  done.store(true, std::memory_order_release);
  peer.join();
  EXPECT_GT(mid_round_in_window, 0);
  EXPECT_EQ(fc.stats().ops, static_cast<std::uint64_t>(trials));
}

TEST(FlatCombinerElection, OpServedInItsWindowStopsWaitingOnTheReply) {
  served_op_stops_waiting_on_the_reply<SpinYieldWait>();
  served_op_stops_waiting_on_the_reply<FutexWait>();
}

// --- the counters the serving pass keeps --------------------------------------

TEST(FlatCombinerTelemetry, OpServedBeforeItsOwnElectionCountsAsCombined) {
  // Op A's CAS lost and it published; its kDone check still sees it
  // pending. Before A's try_lock, B collides, elects itself and its pass
  // serves both slots. A then wins the lock, finds its reply and releases
  // the lock without a tenure: A was combined, B self-served.
  Fc fc(2, 0);
  Peer::publish(fc, 0, AnyRmw(FetchAdd(3)));
  ASSERT_TRUE(Peer::pending(fc, 0));
  Peer::publish(fc, 1, AnyRmw(FetchAdd(5)));
  ASSERT_TRUE(Peer::lock(fc));
  Peer::combine(fc, 1);
  Peer::unlock(fc);
  ASSERT_TRUE(Peer::lock(fc));
  EXPECT_FALSE(Peer::pending(fc, 0));
  Peer::unlock(fc);
  EXPECT_EQ(Peer::take(fc, 0), 0u);
  EXPECT_EQ(Peer::take(fc, 1), 3u);
  const FlatCombinerStats st = fc.stats();
  EXPECT_EQ(st.ops, 2u);
  EXPECT_EQ(st.combined, 1u);
  EXPECT_EQ(st.takeovers, 1u);
  EXPECT_EQ(st.ops, st.direct_applies + st.combined + st.takeovers);
}

TEST(FlatCombinerTelemetry, ThreadedOpsEqualDirectAppliesPlusServed) {
  // One slot per thread, so a slot's direct counter moves only for its
  // thread's ops: an op that left it unchanged was published and served.
  // Every tenure comes from a publisher and serves its own op once, so
  // the served ops are exactly the combined ones plus the takeovers.
  // Rounds repeat until some op has collided (a few ms each; a host that
  // runs the threads one at a time may never collide), at most kRounds.
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kN = 50000;
  constexpr unsigned kRounds = 40;
  FlatCombiner<> fc(kThreads);
  std::atomic<std::uint64_t> served{0};
  std::uint64_t total = 0;
  for (unsigned r = 0; r < kRounds && fc.stats().takeovers == 0; ++r) {
    std::latch start(kThreads);
    std::vector<std::jthread> ts;
    for (unsigned t = 0; t < kThreads; ++t) {
      ts.emplace_back([&, t] {
        const auto direct = [&] {
          const auto [own, shared] = Peer::direct_counts(fc, t);
          return own + shared;
        };
        start.arrive_and_wait();
        std::uint64_t mine = 0;
        for (std::uint64_t i = 0; i < kN; ++i) {
          const std::uint64_t before = direct();
          fc.fetch_rmw(t, AnyRmw(FetchAdd(1)));
          if (direct() == before) ++mine;
        }
        served.fetch_add(mine, std::memory_order_relaxed);
      });
    }
    total += kThreads * kN;
  }
  EXPECT_EQ(fc.read(), total);
  const FlatCombinerStats st = fc.stats();
  EXPECT_EQ(st.ops, total);
  EXPECT_EQ(st.ops, st.direct_applies + served.load());
  EXPECT_EQ(served.load(), st.combined + st.takeovers);
}

// --- reply ordering: the value word is batched before replies publish --------

TEST(FlatCombinerReplyOrder, ValueStoredBeforeAnyReplyPublishes) {
  // Regression: serve_pass once flipped each slot to kDone during the
  // scan and wrote the batched value only afterwards, so a waiter whose
  // reply had landed could read() a value missing its own op (breaking
  // the rw-lock's reader-increment-then-writer-check handshake). The
  // shared_store hook fires immediately before each kDone reply, so the
  // value word must ALREADY hold the full batch there.
  using HFc = FlatCombiner<HookInstrument>;
  HFc fc(2, 0);
  Peer::publish(fc, 0, AnyRmw(FetchAdd(3)));
  Peer::publish(fc, 1, AnyRmw(FetchAdd(5)));
  unsigned replies = 0;
  HookInstrument::on_shared_store = [&](const void*) {
    ++replies;
    EXPECT_EQ(fc.read(), 8u);  // both ops batched in before any reply
  };
  ASSERT_TRUE(Peer::lock(fc));
  Peer::combine(fc);
  Peer::unlock(fc);
  HookInstrument::on_shared_store = nullptr;

  EXPECT_EQ(replies, 2u);  // one reply publication per served slot
  EXPECT_EQ(Peer::take(fc, 0), 0u);
  EXPECT_EQ(Peer::take(fc, 1), 3u);
  EXPECT_EQ(fc.read(), 8u);
}

// --- concurrent hotspot invariants -------------------------------------------

TEST(FlatCombinerConcurrent, HotspotTicketsDistinctMonotoneComplete) {
  for (const unsigned nt : {2u, 4u, 8u}) {
    FlatCombiner<> fc(nt);
    constexpr unsigned kPer = 200;
    std::vector<std::vector<Word>> got(nt);
    {
      std::vector<std::jthread> ts;
      for (unsigned t = 0; t < nt; ++t) {
        ts.emplace_back([&, t] {
          for (unsigned i = 0; i < kPer; ++i) {
            got[t].push_back(fc.fetch_rmw(t, AnyRmw(FetchAdd(1))));
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
    EXPECT_EQ(*all.begin(), 0u);
    EXPECT_EQ(*all.rbegin(), static_cast<Word>(nt) * kPer - 1);
    EXPECT_EQ(fc.read(), static_cast<Word>(nt) * kPer);
    // Quiesced accounting: every op completed; peers can only ABSORB ops,
    // any published op needs an election, and each election runs at least
    // one scan pass.
    const FlatCombinerStats st = fc.stats();
    EXPECT_EQ(st.ops, static_cast<std::uint64_t>(nt) * kPer);
    EXPECT_LE(st.direct_applies + st.combined, st.ops);
    if (st.ops > st.direct_applies) {
      EXPECT_GE(st.takeovers, 1u);
    }
    EXPECT_GE(st.passes, st.takeovers);
    EXPECT_LE(st.handoffs, st.passes);
  }
}

TEST(FlatCombinerConcurrent, ReadAfterCompletedOpSeesOwnOp) {
  // The concurrent face of FlatCombinerReplyOrder: a monotone counter
  // only grows, so a load() issued after a completed fetch_add must
  // return MORE than that op's prior — a stale value_ (reply published
  // before the batch write-back) shows up as read() == prior. This is
  // exactly the window that let coordination.hpp's rw-lock admit a
  // writer alongside an already-admitted reader.
  constexpr unsigned kThreads = 4;
  constexpr unsigned kPer = 300;
  FlatCombiner<> fc(kThreads);
  std::atomic<unsigned> stale{0};
  {
    std::vector<std::jthread> ts;
    for (unsigned t = 0; t < kThreads; ++t) {
      ts.emplace_back([&, t] {
        for (unsigned i = 0; i < kPer; ++i) {
          const Word prior = fc.fetch_rmw(t, AnyRmw(FetchAdd(1)));
          if (fc.read() <= prior) stale.fetch_add(1);
        }
      });
    }
  }
  EXPECT_EQ(stale.load(), 0u);
  EXPECT_EQ(fc.read(), static_cast<Word>(kThreads) * kPer);
}

TEST(FlatCombinerConcurrent, TightPassCapStillCompletesEveryOp) {
  // max_passes = 1 forces a handoff whenever work outlives one scan: the
  // anti-starvation path under real contention. Aliased slots (4 threads,
  // 2 slots) exercise the claim CAS arbitration too.
  FlatCombiner<> fc(2, 0, /*max_passes=*/1);
  constexpr unsigned kThreads = 4;
  constexpr unsigned kPer = 150;
  {
    std::vector<std::jthread> ts;
    for (unsigned t = 0; t < kThreads; ++t) {
      ts.emplace_back([&, t] {
        for (unsigned i = 0; i < kPer; ++i) {
          (void)fc.fetch_rmw(t, AnyRmw(FetchAdd(1)));
        }
      });
    }
  }
  EXPECT_EQ(fc.read(), static_cast<Word>(kThreads) * kPer);
  const FlatCombinerStats st = fc.stats();
  EXPECT_EQ(st.ops, static_cast<std::uint64_t>(kThreads) * kPer);
  // Each tenure runs exactly one pass at this cap, and one pass serves at
  // most slots() published ops (direct applies never reach a pass).
  EXPECT_EQ(st.passes, st.takeovers);
  EXPECT_GE(st.takeovers * fc.slots(), st.ops - st.direct_applies);
}

TEST(FlatCombinerConcurrent, SerializedUpdatesLinearizeWithBatches) {
  // compare_exchange-style updates run a CAS loop on the value word
  // instead of publishing; interleaved with direct and batched adds the
  // final value must still account exactly.
  FlatCombiner<> fc(4, 0);
  constexpr unsigned kPer = 200;
  {
    std::jthread adder([&] {
      for (unsigned i = 0; i < kPer; ++i) {
        (void)fc.fetch_rmw(0, AnyRmw(FetchAdd(1)));
      }
    });
    std::jthread bumper([&] {
      for (unsigned i = 0; i < kPer; ++i) {
        (void)fc.update([](Word v) { return v + 10; });
      }
    });
  }
  EXPECT_EQ(fc.read(), static_cast<Word>(kPer) * 11);
  const FlatCombinerStats st = fc.stats();
  EXPECT_EQ(st.ops, kPer);
  EXPECT_EQ(st.serialized_updates, kPer);
}

TEST(FlatCombinerConcurrent, CompareExchangeLinearizesWithDirectAndBatchedOps) {
  // The lost-update guard. Every write of the value word must be an
  // atomic RMW: a plain store (a locked update(), or a batch
  // written back with a store) can overwrite a concurrent direct CAS and
  // drop its increment. Each thread alternates a fetch_add(1) with a
  // load-then-compare_exchange(e, e + 1) retry loop; odd threads also
  // issue FetchOr(0), the identity, so batches that need the CAS loop run
  // beside all-fetch_add batches and direct applies.
  for (const unsigned nt : {4u, 8u}) {
    FlatCombiningBackend backend(nt);
    FlatCombiningBackend::Cell cell(backend, 0);
    constexpr unsigned kPer = 50'000;
    {
      std::vector<std::jthread> ts;
      for (unsigned t = 0; t < nt; ++t) {
        ts.emplace_back([&, t] {
          for (unsigned i = 0; i < kPer; ++i) {
            backend.fetch_add(cell, 1);
            Word e = backend.load(cell);
            while (!backend.compare_exchange(cell, e, e + 1)) {
            }
            if (t % 2 == 1) {
              (void)backend.fetch_rmw(cell, AnyRmw(FetchOr(0)));
            }
          }
        });
      }
    }
    EXPECT_EQ(backend.load(cell), static_cast<Word>(nt) * kPer * 2)
        << nt << " threads";
    const FlatCombinerStats st = backend.cell_stats(cell);
    EXPECT_EQ(st.ops, static_cast<std::uint64_t>(nt) * kPer +
                          static_cast<std::uint64_t>(nt / 2) * kPer);
    EXPECT_GE(st.serialized_updates, static_cast<std::uint64_t>(nt) * kPer);
  }
}

// --- per-slot counters shared by aliased threads -----------------------------

TEST(SlotAliasing, EightThreadsOnTwoSlotsCountExactly) {
  // Eight threads on two slots: four threads share each slot's direct
  // counter, in a width-2 tree and in a 2-slot flat combiner. The
  // counters are atomic, so once the threads join every count is exact.
  // Both ops totals include the summed per-slot direct counts, so a lost
  // or doubled direct count breaks the two ops identities below.
  constexpr unsigned kThreads = 8;
  constexpr std::uint64_t kN = 20000;
  constexpr std::uint64_t kTotal = kThreads * kN;
  MappingCombiningTree<AnyRmw> tree(2);
  FlatCombiner<> fc(2);
  {
    std::vector<std::jthread> ts;
    for (unsigned t = 0; t < kThreads; ++t) {
      ts.emplace_back([&, t] {
        for (std::uint64_t i = 0; i < kN; ++i) {
          tree.fetch_rmw(t % 2, AnyRmw(FetchAdd(1)));
          fc.fetch_rmw(t % 2, AnyRmw(FetchAdd(1)));
        }
      });
    }
  }
  EXPECT_EQ(tree.read(), kTotal);
  const CombiningTreeStats ts = tree.stats();
  EXPECT_EQ(ts.folds + ts.root_applies, kTotal);
  EXPECT_LE(ts.direct_applies, kTotal);
  EXPECT_EQ(fc.read(), kTotal);
  const FlatCombinerStats fs = fc.stats();
  EXPECT_EQ(fs.ops, kTotal);
  EXPECT_LE(fs.direct_applies + fs.combined, fs.ops);
}

TEST(SlotAliasing, OwnersAliasesAndReusedOrdinalsCountExactly) {
  // Both backends at width 2, where a thread picks slot ordinal % 2: the
  // threads with ordinals 0 and 1 own their slots and count direct
  // applies with a plain store, every other thread aliases onto a slot
  // and counts with a fetch_add, both at once. Each round spawns fresh
  // threads beside the main thread; all of a round's threads take their
  // ordinals before any starts counting, so six ordinals are live at
  // once, and exiting hands them back for the next round's owners and
  // aliases to reuse. A lost or doubled count on either word breaks the
  // ops totals below.
  constexpr unsigned kWidth = 2;
  constexpr unsigned kSpawned = 5;  // beside the main thread
  constexpr unsigned kRounds = 4;
  constexpr std::uint64_t kN = 10000;
  constexpr std::uint64_t kTotal = kRounds * (kSpawned + 1) * kN;
  CombiningBackend tb(kWidth);
  CombiningBackend::Cell tree(tb, 0);
  FlatCombiningBackend fb(kWidth);
  FlatCombiningBackend::Cell flat(fb, 0);
  std::mutex mu;
  std::set<unsigned> ordinals;
  const auto work = [&](std::latch& all_live) {
    {
      const std::lock_guard<std::mutex> lk(mu);
      ordinals.insert(thread_ordinal());
    }
    all_live.arrive_and_wait();
    for (std::uint64_t i = 0; i < kN; ++i) {
      tb.fetch_add(tree, 1);
      fb.fetch_add(flat, 1);
    }
  };
  for (unsigned r = 0; r < kRounds; ++r) {
    std::latch all_live(kSpawned + 1);
    std::vector<std::jthread> ts;
    for (unsigned t = 0; t < kSpawned; ++t) {
      ts.emplace_back(work, std::ref(all_live));
    }
    work(all_live);
  }
  // The premise: each slot's owner ran, and so did an alias of each.
  for (unsigned s = 0; s < kWidth; ++s) {
    ASSERT_TRUE(ordinals.contains(s)) << "slot " << s << " had no owner";
    ASSERT_TRUE(std::any_of(ordinals.begin(), ordinals.end(), [&](unsigned o) {
      return o >= kWidth && o % kWidth == s;
    })) << "slot " << s << " had no alias";
  }

  EXPECT_EQ(tb.load(tree), kTotal);
  const CombiningTreeStats ts = tb.cell_stats(tree);
  EXPECT_EQ(ts.folds + ts.root_applies, kTotal);
  EXPECT_EQ(fb.load(flat), kTotal);
  const FlatCombinerStats fs = fb.cell_stats(flat);
  EXPECT_EQ(fs.ops, kTotal);
  EXPECT_LE(fs.direct_applies + fs.combined, fs.ops);
  // Both words of every slot took counts, so both paths were exercised.
  for (unsigned s = 0; s < kWidth; ++s) {
    const auto [town, tshared] =
        CombiningTreeTestPeer::direct_counts(tree.combiner, s);
    EXPECT_GT(town, 0u) << "tree slot " << s;
    EXPECT_GT(tshared, 0u) << "tree slot " << s;
    const auto [fown, fshared] =
        FlatCombinerTestPeer::direct_counts(flat.combiner, s);
    EXPECT_GT(fown, 0u) << "flat slot " << s;
    EXPECT_GT(fshared, 0u) << "flat slot " << s;
  }
}

// --- instrumented HB edges through the backend seam --------------------------

using krs::analysis::ForkHandle;

TEST(FlatCombinerAnalysis, BackendOrdersTemporallySeparatedOps) {
  // The same experiment the atomic/combining backends pass: the only
  // detector-visible ordering between t0's payload write and t1's read is
  // the combiner's entry-acquire / exit-release edge inside fetch_rmw.
  krs::analysis::RaceDetector det;
  krs::analysis::ScopedDetector guard(det);
  BasicFlatCombiningBackend<GlobalInstrument> backend(4);
  BasicFlatCombiningBackend<GlobalInstrument>::Cell cell(backend, 0);
  std::atomic<int> payload{0};
  std::atomic<bool> done{false};

  ForkHandle f0;
  ForkHandle f1;
  std::thread t0([&] {
    f0.adopt();
    payload.store(7, std::memory_order_relaxed);
    krs::analysis::shadow_write(&payload, KRS_SITE);
    backend.fetch_add(cell, 1);
    done.store(true, std::memory_order_release);
  });
  std::thread t1([&] {
    f1.adopt();
    while (!done.load(std::memory_order_acquire)) std::this_thread::yield();
    backend.fetch_add(cell, 1);
    krs::analysis::shadow_read(&payload, KRS_SITE);
  });
  t0.join();
  f0.join();
  t1.join();
  f1.join();

  EXPECT_EQ(backend.load(cell), 2u);
  EXPECT_TRUE(det.clean()) << det.races()[0].to_string();
}

// --- deterministic model of the publication handshake ------------------------

using krs::verify::EAcquire;
using krs::verify::ERead;
using krs::verify::ERelease;
using krs::verify::EventProgram;
using krs::verify::EWrite;
using krs::verify::explore_races;

TEST(FlatCombineModel, PublicationHandshakeIsRaceFree) {
  // Abstract model of one served publication: var 0 = the slot's op +
  // result payload, var 1 = the value word as the batch sees it; lock 0 =
  // the slot's seq word (claim CAS / publish / reply / pickup
  // transitions), lock 1 = the combiner lock. The combiner (thread 0)
  // locks, acquire-reads the pending slot, serves it against the value
  // word, release-replies. The owner (thread 1) claims, writes its op,
  // publishes, then awaits the reply and picks it up. Only the combiner
  // touches var 1 here; the value word's ordering against the direct path
  // is DirectCasRacingBatchIsRaceFree's subject, and rests on the value
  // word's atomic RMWs, not on the combiner lock. Every cross-thread edge
  // is mediated by the seq word or the combiner lock — no schedule may
  // report a race.
  EventProgram prog;
  prog.threads = {
      // combiner: elect → scan finds kPending → read op → RMW the value →
      // write reply → release kDone → unlock.
      {EAcquire{1}, EAcquire{0}, ERead{0}, ERead{1}, EWrite{1}, EWrite{0},
       ERelease{0}, ERelease{1}},
      // owner: claim (kIdle→kClaimed) → write op → publish kPending;
      // await kDone → read reply → store kIdle.
      {EAcquire{0}, EWrite{0}, ERelease{0}, EAcquire{0}, ERead{0},
       ERelease{0}},
  };
  const auto res = explore_races(prog);
  EXPECT_GT(res.schedules, 0u);
  EXPECT_TRUE(res.never_racy())
      << res.racy_schedules << " of " << res.schedules << " schedules racy";
}

TEST(FlatCombineModel, NakedPublicationAlwaysRaces) {
  // Control: drop the owner's seq-word edges. The naked op write and
  // reply read then race with the combiner on every schedule — proving
  // the clean verdict above comes from the modeled handshake.
  EventProgram prog;
  prog.threads = {
      {EAcquire{1}, EAcquire{0}, ERead{0}, ERead{1}, EWrite{1}, EWrite{0},
       ERelease{0}, ERelease{1}},
      {EWrite{0}, ERead{0}},  // naked publish + naked pickup
  };
  const auto res = explore_races(prog);
  EXPECT_GT(res.schedules, 0u);
  EXPECT_TRUE(res.always_racy())
      << res.racy_schedules << " of " << res.schedules << " schedules racy";
}

TEST(FlatCombineModel, DirectCasRacingBatchIsRaceFree) {
  // var 0 = the slot's payload, var 1 = the value word; lock 0 = the
  // slot's seq word, lock 1 = the combiner lock, lock 2 = the value word
  // as a synchronizing object: each acq_rel RMW on it (the batch's
  // fetch_add or CAS, a direct CAS) reads and writes it atomically, so it
  // is modeled as acquire → read → write → release. The combiner (thread
  // 0) serves one publication with its batch RMW while a direct caller
  // (thread 1) lands its CAS without ever touching the combiner lock.
  EventProgram prog;
  prog.threads = {
      {EAcquire{1}, EAcquire{0}, ERead{0}, EAcquire{2}, ERead{1}, EWrite{1},
       ERelease{2}, EWrite{0}, ERelease{0}, ERelease{1}},
      {EAcquire{2}, ERead{1}, EWrite{1}, ERelease{2}},
  };
  const auto res = explore_races(prog);
  EXPECT_GT(res.schedules, 0u);
  EXPECT_TRUE(res.never_racy())
      << res.racy_schedules << " of " << res.schedules << " schedules racy";
}

TEST(FlatCombineModel, PlainBatchStoreUnderLockTheDirectPathSkipsAlwaysRaces) {
  // Control: the combiner writes the batch back with a plain load + store
  // under the combiner lock, which the direct path never takes. Nothing
  // orders the two sides' value-word accesses, so every schedule races —
  // the lost update the RMW-only rule exists to prevent.
  EventProgram prog;
  prog.threads = {
      {EAcquire{1}, EAcquire{0}, ERead{0}, ERead{1}, EWrite{1}, EWrite{0},
       ERelease{0}, ERelease{1}},
      {EAcquire{2}, ERead{1}, EWrite{1}, ERelease{2}},
  };
  const auto res = explore_races(prog);
  EXPECT_GT(res.schedules, 0u);
  EXPECT_TRUE(res.always_racy())
      << res.racy_schedules << " of " << res.schedules << " schedules racy";
}

// --- the fixed slot → leaf pairing, proven through the tree --------------------

TEST(TopologyTree, PermutationChangesWhichSlotsFold) {
  // Width 4: slots 0 and 1 share a leaf, so a simultaneous wave folds them
  // once and reaches the root once.
  MappingCombiningTree<AnyRmw> paired(4, 0);
  (void)paired.run_wave({{0, AnyRmw(FetchAdd(1))}, {1, AnyRmw(FetchAdd(1))}});
  EXPECT_EQ(paired.stats().folds, 1u);
  EXPECT_EQ(paired.stats().root_applies, 1u);
  EXPECT_EQ(paired.read(), 2u);

  // Swap slot 1 for slot 2: slots 0 and 2 sit at DIFFERENT leaves, so the
  // same wave cannot fold — two root applications.
  MappingCombiningTree<AnyRmw> apart(4, 0);
  (void)apart.run_wave({{0, AnyRmw(FetchAdd(1))}, {2, AnyRmw(FetchAdd(1))}});
  EXPECT_EQ(apart.stats().folds, 0u);
  EXPECT_EQ(apart.stats().root_applies, 2u);
  EXPECT_EQ(apart.read(), 2u);
}

// --- relaxed width precondition ----------------------------------------------

TEST(TreeWidth, OddWidthsRoundUpAndStayCorrect) {
  MappingCombiningTree<AnyRmw> t3(3, 0);
  EXPECT_EQ(t3.slots(), 4u);
  MappingCombiningTree<AnyRmw> t5(5, 0);
  EXPECT_EQ(t5.slots(), 8u);
  MappingCombiningTree<AnyRmw> t1(1, 0);
  EXPECT_EQ(t1.slots(), 2u);

  for (unsigned s = 0; s < 3; ++s) {
    EXPECT_EQ(t3.fetch_rmw(s, AnyRmw(FetchAdd(1))), s);
  }
  EXPECT_EQ(t3.read(), 3u);
}

TEST(TreeWidth, OddWidthBackendCountsExactly) {
  // CombiningBackend sized to an odd "core count": the tree rounds its
  // slot count up to 4 and takes the thread→slot modulo there.
  CombiningBackend backend(3);
  EXPECT_EQ(backend.width(), 3u);
  CombiningBackend::Cell cell(backend, 0);
  constexpr unsigned kThreads = 3;
  constexpr unsigned kPer = 100;
  {
    std::vector<std::jthread> ts;
    for (unsigned t = 0; t < kThreads; ++t) {
      ts.emplace_back([&] {
        for (unsigned i = 0; i < kPer; ++i) backend.fetch_add(cell, 1);
      });
    }
  }
  EXPECT_EQ(backend.load(cell), static_cast<Word>(kThreads) * kPer);
}

}  // namespace
