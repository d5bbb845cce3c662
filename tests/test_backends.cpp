// The RmwBackend seam (runtime/rmw_backend.hpp, runtime/combining_backend.hpp)
// and the mapping-generalized combining tree underneath it:
//
//  * concept/layout contracts for both backends;
//  * the MappingCombiningTree combining NON-add families end to end —
//    fetch-and-or tickets, AnyRmw swaps with §3 decombination, and a
//    mixed-family stream whose cross-family compositions DECLINE at the
//    nodes (§7 partial combining);
//  * cross-backend equivalence: the same workload through AtomicBackend,
//    CombiningBackend, FlatCombiningBackend, and SimBackend (cells in the
//    simulated Omega machine) yields identical priors, ticket-set
//    invariants and monotone load() snapshots at 2/4/8 threads; the
//    scripted single-thread sequence also runs on LockBackend<McsLock>;
//  * the combining tree behind CombiningBackend: odd and width-2 trees
//    (shared leaves and shared slots), mixed-addend sum conservation, and
//    a non-plus family (fetch-and-max) through every phase of the
//    protocol; the same tickets, sums and snapshots on the tree itself,
//    driven slot by slot below the seam;
//  * every §6 primitive (barrier, rw-lock, semaphore, queue, full/empty
//    cell, group lock) run against ALL FOUR backends;
//  * partial-combining telemetry (§7): a deterministic single-threaded
//    drive of the four-phase protocol through CombiningTreeTestPeer pins
//    the fold/decline counters and the declined second's root-served
//    reply, value by value; a lone caller always lands the direct root
//    CAS, and its direct apply makes no copy of the mapping;
//  * the collision window, driven through CombiningTreeTestPeer::climb
//    with a scripted wait policy: a lone climber waits exactly the window
//    before its root apply, a partner depositing in it is folded, a
//    second waits the same window before it deposits, a width-2 climb has
//    no window, under both shipped policies the window is pure spin, and
//    a second's reply wait ends on the pause its reply lands;
//  * compare_exchange racing direct and combined fetch_adds on one cell:
//    no increment may be lost;
//  * deterministic race_explorer models of the node handshake, of the
//    declined-composition fetch_rmw path and of a direct root CAS racing
//    a first's root apply, with controls showing the verdicts come from
//    the modeled edges.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "analysis/instrument.hpp"
#include "core/any_rmw.hpp"
#include "core/dls.hpp"
#include "core/fetch_theta.hpp"
#include "core/load_store_swap.hpp"
#include "runtime/combining_backend.hpp"
#include "runtime/combining_tree.hpp"
#include "runtime/coordination.hpp"
#include "runtime/flat_combining.hpp"
#include "runtime/full_empty_cell.hpp"
#include "runtime/group_lock.hpp"
#include "runtime/local_spin_locks.hpp"
#include "runtime/parallel_queue.hpp"
#include "runtime/rmw_backend.hpp"
#include "runtime/sharded_backend.hpp"
#include "runtime/sim_backend.hpp"
#include "verify/race_explorer.hpp"
#include "workload/path_scenarios.hpp"

#include "test_peers.hpp"

namespace {

using namespace krs::runtime;
using krs::analysis::GlobalInstrument;
using krs::analysis::NoInstrument;
using krs::core::AnyRmw;
using krs::core::FetchAdd;
using krs::core::FetchOr;
using krs::core::LssOp;

// --- concept and layout contracts -------------------------------------------

static_assert(RmwBackend<AtomicBackend>);
static_assert(RmwBackend<CombiningBackend>);
static_assert(RmwBackend<FlatCombiningBackend>);
static_assert(RmwBackend<SimBackend>);
static_assert(RmwBackend<ShardedBackend<AtomicBackend>>);
static_assert(RmwBackend<ShardedBackend<CombiningBackend>>);
static_assert(RmwBackend<ShardedBackend<FlatCombiningBackend>>);
static_assert(RmwBackend<ShardedBackend<SimBackend>>);
static_assert(RmwBackend<BasicAtomicBackend<GlobalInstrument>>);
static_assert(RmwBackend<BasicCombiningBackend<GlobalInstrument>>);
static_assert(RmwBackend<BasicFlatCombiningBackend<GlobalInstrument>>);
static_assert(RmwBackend<BasicSimBackend<GlobalInstrument>>);

// The instrumentation policy must add no per-object state, to the backend
// or to the primitives built on it.
static_assert(sizeof(BasicAtomicBackend<NoInstrument>) ==
              sizeof(BasicAtomicBackend<GlobalInstrument>));
static_assert(sizeof(BasicCombiningBackend<NoInstrument>) ==
              sizeof(BasicCombiningBackend<GlobalInstrument>));
static_assert(sizeof(BasicFlatCombiningBackend<NoInstrument>) ==
              sizeof(BasicFlatCombiningBackend<GlobalInstrument>));
static_assert(sizeof(BasicSimBackend<NoInstrument>) ==
              sizeof(BasicSimBackend<GlobalInstrument>));
static_assert(sizeof(BasicBarrier<AtomicBackend, NoInstrument>) ==
              sizeof(BasicBarrier<AtomicBackend, GlobalInstrument>));
static_assert(sizeof(BasicRwLock<AtomicBackend, NoInstrument>) ==
              sizeof(BasicRwLock<AtomicBackend, GlobalInstrument>));
static_assert(sizeof(BasicSemaphore<AtomicBackend, NoInstrument>) ==
              sizeof(BasicSemaphore<AtomicBackend, GlobalInstrument>));

// --- single-thread backend semantics ----------------------------------------

// Run the same scripted op sequence through any backend and collect every
// returned prior: the backends must be observationally identical.
template <typename B>
std::vector<Word> scripted_run(B& b) {
  typename B::Cell c(b, 10);
  std::vector<Word> out;
  out.push_back(b.fetch_add(c, 5));                    // 10 → 15
  out.push_back(b.fetch_or(c, 0xF0));                  // 15 → 0xFF
  out.push_back(b.fetch_and(c, 0x0F));                 // 0xFF → 0x0F
  out.push_back(b.fetch_xor(c, 0xFF));                 // 0x0F → 0xF0
  out.push_back(b.exchange(c, 3));                     // 0xF0 → 3
  out.push_back(b.fetch_rmw(c, AnyRmw(FetchAdd(4))));  // 3 → 7
  out.push_back(b.fetch_rmw(c, AnyRmw(LssOp::swap(40))));  // 7 → 40
  Word expect = 41;  // mismatch: must fail and reload expect
  EXPECT_FALSE(b.compare_exchange(c, expect, 99));
  out.push_back(expect);  // reloaded prior: 40
  EXPECT_TRUE(b.compare_exchange(c, expect, 99));  // 40 → 99
  out.push_back(b.load(c));                        // 99
  b.store(c, 7);
  out.push_back(b.load(c));  // 7
  return out;
}

TEST(Backends, ScriptedSequenceIdenticalAcrossBackends) {
  // The 5-way matrix: hardware atomics, software combining tree, flat
  // combiner, the simulated Omega machine and the MCS-locked word must be
  // observationally identical.
  AtomicBackend ab;
  CombiningBackend cb(4);
  FlatCombiningBackend fb(4);
  SimBackend sb(SimBackendConfig{.log2_procs = 2});
  LockBackend<McsLock> lb;
  const auto a = scripted_run(ab);
  const auto c = scripted_run(cb);
  const auto f = scripted_run(fb);
  const auto s = scripted_run(sb);
  const auto l = scripted_run(lb);
  EXPECT_EQ(a, c);
  EXPECT_EQ(a, f);
  EXPECT_EQ(a, s);
  EXPECT_EQ(a, l);
  const std::vector<Word> expect{10, 15, 0xFF, 0x0F, 0xF0, 3, 7, 40, 99, 7};
  EXPECT_EQ(a, expect);
  // The sim run really went through the network: 10 of the 12 scripted
  // ops are packets (the two compare_exchange serialize at the module).
  const SimBackendStats st = sb.stats();
  EXPECT_EQ(st.network_ops, 10u);
  EXPECT_EQ(st.root_serialized_ops, 2u);
  EXPECT_GT(st.cycles, 0u);
  EXPECT_GT(st.cycles_per_op(), 0.0);
}

TEST(Backends, ScriptedSequenceIdenticalShardedOverEveryInner) {
  // The fifth substrate, the 5-way equivalence row: sharding over the
  // hardware-atomic, combining-tree, and flat-combining inners against
  // the unsharded atomic baseline. The
  // script runs single-threaded, so every operation routes to the cell's
  // HOME shard — the shard holding the initial value — and the relaxed
  // sharded semantics degrade to exactly the inner backend's, priors,
  // compare_exchange reloads, aggregation reads, and store/reset included.
  AtomicBackend ab;
  ShardedBackend<AtomicBackend> sharded_atomic{AtomicBackend{}, 4};
  ShardedBackend<CombiningBackend> sharded_tree{CombiningBackend{4}, 4};
  ShardedBackend<FlatCombiningBackend> sharded_flat{FlatCombiningBackend{4},
                                                    4};
  const auto base = scripted_run(ab);
  EXPECT_EQ(scripted_run(sharded_atomic), base);
  EXPECT_EQ(scripted_run(sharded_tree), base);
  EXPECT_EQ(scripted_run(sharded_flat), base);
  const std::vector<Word> expect{10, 15, 0xFF, 0x0F, 0xF0, 3, 7, 40, 99, 7};
  EXPECT_EQ(base, expect);
}

// --- non-add families through the mapping tree -------------------------------

TEST(MappingTree, FetchOrCombinesDistinctBits) {
  // Each thread repeatedly ors its own bit in. Or only sets bits, so every
  // thread's stream of priors is numerically non-decreasing, the first
  // prior overall is the initial value for some thread, and the final
  // value is the union of all bits — regardless of how the tree combined.
  constexpr unsigned kThreads = 4;
  constexpr unsigned kPer = 200;
  MappingCombiningTree<AnyRmw> tree(4, 0);
  std::vector<std::vector<Word>> priors(kThreads);
  {
    std::vector<std::jthread> ts;
    for (unsigned t = 0; t < kThreads; ++t) {
      ts.emplace_back([&, t] {
        const Word mine = Word{1} << t;
        for (unsigned i = 0; i < kPer; ++i) {
          priors[t].push_back(tree.fetch_rmw(t, AnyRmw(FetchOr(mine))));
        }
      });
    }
  }
  const Word all = (Word{1} << kThreads) - 1;
  EXPECT_EQ(tree.read(), all);
  for (unsigned t = 0; t < kThreads; ++t) {
    ASSERT_EQ(priors[t].size(), kPer);
    EXPECT_TRUE(std::is_sorted(priors[t].begin(), priors[t].end()));
    // After a thread's first op its own bit is set, so every later prior
    // must contain it (M2.3 at the tree level).
    const Word mine = Word{1} << t;
    for (unsigned i = 1; i < kPer; ++i) {
      EXPECT_EQ(priors[t][i] & mine, mine);
    }
    // No prior may contain a bit no thread writes.
    for (const Word p : priors[t]) EXPECT_EQ(p & ~all, 0u);
  }
}

TEST(MappingTree, SwapChainConservesValues) {
  // Every thread swaps in distinct values. Swap composes as the §5.1 table
  // (I_a then I_b forwards I_b, decombination answers the second with a —
  // the chain rule), so across any combining pattern the multiset
  // {initial} ∪ {swapped-in values} must equal {observed priors} ∪
  // {final value}: every value is handed off exactly once.
  constexpr unsigned kThreads = 4;
  constexpr unsigned kPer = 150;
  constexpr Word kInitial = 999'999;
  MappingCombiningTree<AnyRmw> tree(4, kInitial);
  std::vector<std::vector<Word>> priors(kThreads);
  {
    std::vector<std::jthread> ts;
    for (unsigned t = 0; t < kThreads; ++t) {
      ts.emplace_back([&, t] {
        for (unsigned i = 0; i < kPer; ++i) {
          const Word v = t * kPer + i;  // globally unique
          priors[t].push_back(tree.fetch_rmw(t, AnyRmw(LssOp::swap(v))));
        }
      });
    }
  }
  std::multiset<Word> in{kInitial};
  std::multiset<Word> out{tree.read()};
  for (unsigned t = 0; t < kThreads; ++t) {
    for (unsigned i = 0; i < kPer; ++i) in.insert(t * kPer + i);
    out.insert(priors[t].begin(), priors[t].end());
  }
  EXPECT_EQ(in, out);
}

TEST(MappingTree, MixedFamiliesDeclineAndStayLinearizable) {
  // Half the threads add 1 (low bits), half or in high bits. Cross-family
  // compositions decline at the nodes (§7), so this exercises the
  // declined-service path under real concurrency. Adds can never carry
  // into the or-bits (≤ kAdds·kPer < 2^48), so the two families commute
  // on disjoint bit ranges: the adders' priors, masked to the low range,
  // must be the distinct tickets 0..N-1, and the final value decomposes
  // exactly.
  constexpr unsigned kAdders = 2;
  constexpr unsigned kOrers = 2;
  constexpr unsigned kPer = 200;
  constexpr Word kOrBase = Word{1} << 48;
  constexpr Word kLowMask = kOrBase - 1;
  MappingCombiningTree<AnyRmw> tree(4, 0);
  std::vector<std::vector<Word>> addPriors(kAdders);
  {
    std::vector<std::jthread> ts;
    for (unsigned t = 0; t < kAdders; ++t) {
      ts.emplace_back([&, t] {
        for (unsigned i = 0; i < kPer; ++i) {
          addPriors[t].push_back(tree.fetch_rmw(t, AnyRmw(FetchAdd(1))));
        }
      });
    }
    for (unsigned t = 0; t < kOrers; ++t) {
      ts.emplace_back([&, t] {
        const Word mine = kOrBase << t;
        for (unsigned i = 0; i < kPer; ++i) {
          tree.fetch_rmw(kAdders + t, AnyRmw(FetchOr(mine)));
        }
      });
    }
  }
  const Word fin = tree.read();
  EXPECT_EQ(fin & kLowMask, kAdders * kPer);
  EXPECT_EQ(fin >> 48, (Word{1} << kOrers) - 1);
  std::set<Word> tickets;
  for (const auto& v : addPriors) {
    for (const Word p : v) tickets.insert(p & kLowMask);
  }
  EXPECT_EQ(tickets.size(), static_cast<std::size_t>(kAdders) * kPer);
  EXPECT_EQ(*tickets.begin(), 0u);
  EXPECT_EQ(*tickets.rbegin(), static_cast<Word>(kAdders * kPer) - 1);
  // Quiesced accounting identity: every operation either folded into a
  // partner below the root or was applied at the root (declined seconds
  // included — distribute() serves them with their own root application).
  const CombiningTreeStats st = tree.stats();
  EXPECT_EQ(st.ops, static_cast<std::uint64_t>(kAdders + kOrers) * kPer);
  EXPECT_EQ(st.root_applies + st.folds, st.ops);
  EXPECT_DOUBLE_EQ(st.combine_rate() + st.served_at_root_fraction(), 1.0);
}

// --- partial-combining telemetry, driven deterministically --------------------

using krs::runtime::CombiningTreeTestPeer;
using Peer = CombiningTreeTestPeer;

TEST(CombineTelemetry, DeclinedFoldCountedAndServedAtRoot) {
  // Single-threaded drive of one declined combine in a width-8 tree
  // (leaves 4..7, root 1; slots 0 and 1 share leaf 4): the first climbs
  // with FetchAdd(5), the second deposits a cross-family FetchOr(0xF0),
  // try_compose declines (§7), and distribute() serves the second at the
  // root AFTER everything the first combined.
  MappingCombiningTree<AnyRmw> tree(8, 100);
  // First (slot 0): precombine climbs leaf 4 and node 2, stops at root.
  EXPECT_TRUE(Peer::precombine(tree, 4));
  EXPECT_TRUE(Peer::precombine(tree, 2));
  EXPECT_FALSE(Peer::precombine(tree, 1));
  // Second (slot 1): engages at the shared leaf and deposits its mapping.
  EXPECT_FALSE(Peer::precombine(tree, 4));
  Peer::deposit_second(tree, 4, AnyRmw(FetchOr(0xF0)));
  // First's combine at the leaf sees SecondReady and declines the fold.
  AnyRmw combined = Peer::combine(tree, 4, AnyRmw(FetchAdd(5)));
  EXPECT_EQ(tree.declined_folds_at(4), 1u);
  combined = Peer::combine(tree, 2, std::move(combined));  // no partner
  const Word prior = Peer::apply_at_root(tree, combined);
  EXPECT_EQ(prior, 100u);
  EXPECT_EQ(tree.read(), 105u);
  // Distribute back down: node 2 just resets; leaf 4 is the declined
  // second — served at the root now, its reply is the value it found.
  Peer::distribute(tree, 2, prior);
  Peer::distribute(tree, 4, prior);
  EXPECT_EQ(tree.read(), 105u | 0xF0u);  // or applied after the add
  EXPECT_EQ(Peer::take_result(tree, 4), 105u);
  const CombiningTreeStats st = tree.stats();
  EXPECT_EQ(st.folds, 0u);
  EXPECT_EQ(st.declined_folds, 1u);
  EXPECT_EQ(st.root_applies, 2u);  // combined apply + declined service
  EXPECT_EQ(st.direct_applies, 0u);
  EXPECT_EQ(st.ops, 2u);
  EXPECT_DOUBLE_EQ(st.combine_rate(), 0.0);
  EXPECT_DOUBLE_EQ(st.served_at_root_fraction(), 1.0);
}

TEST(CombineTelemetry, SuccessfulFoldCountedOnceWithDecombinedReply) {
  // Same dance, same family: the fold succeeds, one root application
  // carries both operations, and the second's reply is the decombination
  // rule ⟨id2, f(val)⟩ = prior + first's addend.
  MappingCombiningTree<AnyRmw> tree(8, 100);
  EXPECT_TRUE(Peer::precombine(tree, 4));
  EXPECT_TRUE(Peer::precombine(tree, 2));
  EXPECT_FALSE(Peer::precombine(tree, 1));
  EXPECT_FALSE(Peer::precombine(tree, 4));
  Peer::deposit_second(tree, 4, AnyRmw(FetchAdd(7)));
  AnyRmw combined = Peer::combine(tree, 4, AnyRmw(FetchAdd(5)));
  EXPECT_EQ(tree.declined_folds_at(4), 0u);
  combined = Peer::combine(tree, 2, std::move(combined));
  const Word prior = Peer::apply_at_root(tree, combined);
  EXPECT_EQ(prior, 100u);
  EXPECT_EQ(tree.read(), 112u);  // one application of add-12
  Peer::distribute(tree, 2, prior);
  Peer::distribute(tree, 4, prior);
  EXPECT_EQ(Peer::take_result(tree, 4), 105u);  // prior + first's 5
  const CombiningTreeStats st = tree.stats();
  EXPECT_EQ(st.folds, 1u);
  EXPECT_EQ(st.declined_folds, 0u);
  EXPECT_EQ(st.root_applies, 1u);
  EXPECT_EQ(st.direct_applies, 0u);
  EXPECT_EQ(st.ops, 2u);
  EXPECT_DOUBLE_EQ(st.combine_rate(), 0.5);
  EXPECT_DOUBLE_EQ(st.served_at_root_fraction(), 0.5);
}

TEST(CombineTelemetry, LoneCallerAlwaysLandsTheDirectCas) {
  // Nobody else touches the root word, so every operation's first CAS
  // lands: each is one direct apply, counted in root_applies, and the
  // tree below the root is never entered.
  constexpr std::uint64_t kN = 1000;
  MappingCombiningTree<AnyRmw> tree(8, 0);
  for (std::uint64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(tree.fetch_rmw(static_cast<unsigned>(i % 8),
                             AnyRmw(FetchAdd(1))),
              i);
  }
  EXPECT_EQ(tree.read(), kN);
  const CombiningTreeStats st = tree.stats();
  EXPECT_EQ(st.direct_applies, kN);
  EXPECT_EQ(st.root_applies, kN);
  EXPECT_EQ(st.ops, kN);
  EXPECT_EQ(st.folds, 0u);
  EXPECT_EQ(st.declined_folds, 0u);
  EXPECT_DOUBLE_EQ(st.served_at_root_fraction(), 1.0);
  EXPECT_DOUBLE_EQ(st.direct_rate(), 1.0);
}

TEST(CombineTelemetry, UpdatesCountedApartFromOpsOnBothCombiners) {
  // update() (the compare_exchange path) combines with nothing, so both
  // combiners count it in serialized_updates, and `ops` counts fetch_rmw
  // operations only.
  constexpr std::uint64_t kN = 30;
  constexpr std::uint64_t kK = 7;
  const auto run = [&](auto& combiner) {
    for (std::uint64_t i = 0; i < kN + kK; ++i) {
      if (i % 5 == 4) {
        (void)combiner.update([](Word v) { return v + 100; });
      } else {
        (void)combiner.fetch_rmw(static_cast<unsigned>(i % 4),
                                 AnyRmw(FetchAdd(1)));
      }
    }
    EXPECT_EQ(combiner.read(), kN + 100 * kK);
    const auto st = combiner.stats();
    EXPECT_EQ(st.ops, kN);
    EXPECT_EQ(st.serialized_updates, kK);
  };
  MappingCombiningTree<AnyRmw> tree(4, 0);
  run(tree);
  EXPECT_EQ(tree.stats().root_applies, kN);
  FlatCombiner<> flat(4, 0);
  run(flat);
}

// A fetch-and-add mapping that counts its own copies and moves, to pin
// what the tree does with the caller's mapping.
struct CountingAdd {
  using value_type = std::uint64_t;
  static inline int copies = 0;
  static inline int moves = 0;

  std::uint64_t k = 0;

  CountingAdd() = default;
  explicit CountingAdd(std::uint64_t add) : k(add) {}
  CountingAdd(const CountingAdd& o) : k(o.k) { ++copies; }
  CountingAdd(CountingAdd&& o) noexcept : k(o.k) { ++moves; }
  CountingAdd& operator=(const CountingAdd& o) {
    k = o.k;
    ++copies;
    return *this;
  }
  CountingAdd& operator=(CountingAdd&& o) noexcept {
    k = o.k;
    ++moves;
    return *this;
  }

  [[nodiscard]] value_type apply(value_type x) const { return x + k; }
  friend std::optional<CountingAdd> try_compose(const CountingAdd& f,
                                                const CountingAdd& g) {
    return CountingAdd(f.k + g.k);
  }
};
static_assert(krs::core::CombinableMapping<CountingAdd>);

TEST(CombineTelemetry, DirectPathMakesNoCopyOfTheMapping) {
  // The caller's mapping is an lvalue, as it is behind the backend seam:
  // a by-value fetch_rmw would copy it once per call. A lone caller's
  // CAS always lands, so no operation climbs, and the tree never needs a
  // copy of its own.
  constexpr std::uint64_t kN = 100;
  MappingCombiningTree<CountingAdd> tree(4, 0);
  const CountingAdd add3(3);
  CountingAdd::copies = 0;
  CountingAdd::moves = 0;
  for (std::uint64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(tree.fetch_rmw(static_cast<unsigned>(i % 4), add3), 3 * i);
  }
  EXPECT_EQ(CountingAdd::copies, 0);
  EXPECT_EQ(CountingAdd::moves, 0);
  EXPECT_EQ(tree.read(), 3 * kN);
  EXPECT_EQ(tree.stats().direct_applies, kN);
}

// --- the collision window, driven deterministically ---------------------------

// Width-8 trees (leaves 4..7; slots 0 and 1 share leaf 4, whose path is
// 4, 2, root) climbed through the peer, as an op whose direct CAS lost.
using STree = MappingCombiningTree<AnyRmw, NoInstrument, ScriptedWait>;
constexpr unsigned kWindow = STree::kCollisionWindowRounds;

TEST(CombiningTreeWindow, LoneClimberWaitsTheWindowThenAppliesAtTheRoot) {
  // Nobody reaches its path, so the climber waits out the whole window
  // holding leaf 4 and node 2, and the root word is untouched until then.
  STree tree(8, 100);
  ScriptedWait::waits = 0;
  ScriptedWait::on_wait = [&](unsigned) { EXPECT_EQ(tree.read(), 100u); };
  EXPECT_EQ(Peer::climb(tree, 0, AnyRmw(FetchAdd(5))), 100u);
  ScriptedWait::on_wait = nullptr;
  EXPECT_EQ(ScriptedWait::waits, kWindow);
  EXPECT_EQ(tree.read(), 105u);
  const CombiningTreeStats st = tree.stats();
  EXPECT_EQ(st.root_applies, 1u);
  EXPECT_EQ(st.direct_applies, 0u);
  EXPECT_EQ(st.folds, 0u);
  // The path was released: a second climb claims it afresh.
  EXPECT_EQ(Peer::climb(tree, 1, AnyRmw(FetchAdd(1))), 105u);
  EXPECT_EQ(ScriptedWait::waits, 2 * kWindow);
}

TEST(CombiningTreeWindow, PartnerDepositingInTheWindowIsFolded) {
  // In the window's last round, the slot-1 partner reaches leaf 4, finds
  // the climber's First claim, engages as its second and deposits. The
  // climber then folds it on its way up: one root application carries
  // both, and the replies are ⟨prior, f(prior)⟩.
  STree tree(8, 100);
  ScriptedWait::waits = 0;
  ScriptedWait::on_wait = [&](unsigned w) {
    if (w != kWindow - 1) return;
    EXPECT_FALSE(Peer::precombine(tree, 4));  // second at the shared leaf
    Peer::deposit_second(tree, 4, AnyRmw(FetchAdd(7)));
  };
  EXPECT_EQ(Peer::climb(tree, 0, AnyRmw(FetchAdd(5))), 100u);
  ScriptedWait::on_wait = nullptr;
  EXPECT_EQ(ScriptedWait::waits, kWindow);
  EXPECT_EQ(Peer::take_result(tree, 4), 105u);  // prior + the first's 5
  EXPECT_EQ(tree.read(), 112u);
  const CombiningTreeStats st = tree.stats();
  EXPECT_EQ(st.folds, 1u);
  EXPECT_EQ(st.root_applies, 1u);
  EXPECT_EQ(st.ops, 2u);
}

TEST(CombiningTreeWindow, SecondWaitsTheWindowThenDeposits) {
  // A scripted first holds leaf 4 and node 2. The climber reaches leaf 4
  // as the second and waits out the collision window before it deposits:
  // its mapping is first in the node at wait kCollisionWindowRounds, its
  // first reply-wait round, where the first then combines and
  // distributes.
  STree tree(8, 100);
  ASSERT_TRUE(Peer::precombine(tree, 4));
  ASSERT_TRUE(Peer::precombine(tree, 2));
  ASSERT_FALSE(Peer::precombine(tree, 1));
  ScriptedWait::waits = 0;
  unsigned deposited_at = ~0u;
  ScriptedWait::on_wait = [&](unsigned w) {
    if (deposited_at != ~0u || !Peer::second_ready(tree, 4)) return;
    deposited_at = w;
    AnyRmw combined = Peer::combine(tree, 4, AnyRmw(FetchAdd(5)));
    combined = Peer::combine(tree, 2, std::move(combined));
    const Word prior = Peer::apply_at_root(tree, combined);
    Peer::distribute(tree, 2, prior);
    Peer::distribute(tree, 4, prior);
  };
  EXPECT_EQ(Peer::climb(tree, 1, AnyRmw(FetchAdd(7))), 105u);
  ScriptedWait::on_wait = nullptr;
  EXPECT_EQ(deposited_at, kWindow);
  EXPECT_EQ(ScriptedWait::waits, kWindow + 1);  // the window, one reply wait
  EXPECT_EQ(tree.read(), 112u);
  EXPECT_EQ(tree.stats().folds, 1u);
}

TEST(CombiningTreeWindow, ClimberWithNoPathHasNoWindow) {
  // Width 2: both slots' leaf is the root, so a climb claims nothing that
  // a partner could find, and the op applies at once.
  STree tree(2, 10);
  ScriptedWait::waits = 0;
  EXPECT_EQ(Peer::climb(tree, 0, AnyRmw(FetchAdd(3))), 10u);
  EXPECT_EQ(ScriptedWait::waits, 0u);
  EXPECT_EQ(tree.read(), 13u);
}

// Under a shipped policy the window is its first kCollisionWindowRounds
// rounds: 1+2+…+2^(R-1) pauses, no yield, no park.
template <typename Policy>
void lone_climber_spins_the_window() {
  using PTree = MappingCombiningTree<AnyRmw, NoInstrument, Policy>;
  PTree tree(8, 10);
  const WaitStats before = thread_wait_stats();
  EXPECT_EQ(Peer::climb(tree, 0, AnyRmw(FetchAdd(3))), 10u);
  const WaitStats d = thread_wait_stats() - before;
  EXPECT_EQ(d.spins, (1u << PTree::kCollisionWindowRounds) - 1);
  EXPECT_EQ(d.yields, 0u);
  EXPECT_EQ(d.parks, 0u);
  EXPECT_EQ(tree.stats().root_applies, 1u);
}

TEST(CombiningTreeWindow, WindowIsSpinGraceUnderBothShippedPolicies) {
  lone_climber_spins_the_window<SpinYieldWait>();
  lone_climber_spins_the_window<FutexWait>();
}

TEST(CombiningTreeWindow, SecondsReplyWaitEndsOnTheReply) {
  // Under SpinYieldWait, a thread plays the first: it holds leaf 4 and
  // node 2, and distributes as soon as the climber, the second at leaf 4,
  // has deposited. The reply lands at no particular pause, so a watching
  // reply wait ends mid-round in some trial; a blind one always ends on a
  // round boundary. Trials repeat until one ends mid-round (a descheduled
  // first can push a reply past the grace) or the deadline passes. Every
  // trial's reply is the first's prior plus 5.
  using PTree = MappingCombiningTree<AnyRmw, NoInstrument, SpinYieldWait>;
  constexpr unsigned kWindowSpins = (1u << PTree::kCollisionWindowRounds) - 1;
  constexpr int kMinTrials = 20;
  PTree tree(8, 0);
  std::atomic<int> requested{-1};
  std::atomic<int> claimed{-1};
  std::atomic<bool> stop{false};
  std::jthread first([&] {
    for (int t = 0;; ++t) {
      while (requested.load(std::memory_order_acquire) < t) {
        if (stop.load(std::memory_order_acquire)) return;
        std::this_thread::yield();
      }
      EXPECT_TRUE(Peer::precombine(tree, 4));
      EXPECT_TRUE(Peer::precombine(tree, 2));
      EXPECT_FALSE(Peer::precombine(tree, 1));
      claimed.store(t, std::memory_order_release);
      while (!Peer::second_ready(tree, 4)) cpu_relax();
      AnyRmw combined = Peer::combine(tree, 4, AnyRmw(FetchAdd(5)));
      combined = Peer::combine(tree, 2, std::move(combined));
      const Word prior = Peer::apply_at_root(tree, combined);
      Peer::distribute(tree, 2, prior);
      Peer::distribute(tree, 4, prior);
    }
  });
  int trials = 0;
  int mid_round = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((trials < kMinTrials || mid_round == 0) &&
         std::chrono::steady_clock::now() < deadline) {
    const int t = trials++;
    requested.store(t, std::memory_order_release);
    while (claimed.load(std::memory_order_acquire) != t) {
      std::this_thread::yield();
    }
    const WaitStats before = thread_wait_stats();
    EXPECT_EQ(Peer::climb(tree, 1, AnyRmw(FetchAdd(7))),
              static_cast<Word>(12 * t + 5));
    // No ASSERT in this loop: returning early would leave the first
    // waiting for a trial that never comes.
    const WaitStats d = thread_wait_stats() - before;
    EXPECT_GE(d.spins, kWindowSpins);
    if (d.spins >= kWindowSpins &&
        !ends_on_a_round_boundary(d.spins - kWindowSpins)) {
      ++mid_round;
    }
  }
  stop.store(true, std::memory_order_release);
  first.join();
  EXPECT_GT(mid_round, 0);
  EXPECT_EQ(tree.read(), static_cast<Word>(12 * trials));
  EXPECT_EQ(tree.stats().folds, static_cast<std::uint64_t>(trials));
}

// --- cross-backend equivalence ----------------------------------------------

// The same hotspot-counter workload through any backend: every thread's
// priors are its tickets; across the run the tickets must be exactly
// 0..N-1 with per-thread monotonicity and final == N, and load()
// snapshots taken while the writers run must never go backwards.
template <typename B>
void hotspot_counter_invariants(B backend) {
  for (const unsigned nt : {2u, 4u, 8u}) {
    B b = backend;
    typename B::Cell cell(b, 0);
    constexpr unsigned kPer = 200;
    std::vector<std::vector<Word>> got(nt);
    {
      std::vector<std::jthread> ts;
      for (unsigned t = 0; t < nt; ++t) {
        ts.emplace_back([&, t] {
          for (unsigned i = 0; i < kPer; ++i) {
            got[t].push_back(b.fetch_add(cell, 1));
          }
        });
      }
      Word last = 0;
      for (unsigned i = 0; i < kPer; ++i) {
        const Word v = b.load(cell);
        EXPECT_GE(v, last) << "torn snapshot at " << nt << " writers";
        last = v;
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
    EXPECT_EQ(b.load(cell), static_cast<Word>(nt) * kPer);
  }
}

TEST(BackendEquivalence, HotspotTicketsAtomic) {
  hotspot_counter_invariants(AtomicBackend{});
}

TEST(BackendEquivalence, HotspotTicketsCombining) {
  hotspot_counter_invariants(CombiningBackend{8});
}

TEST(BackendEquivalence, HotspotTicketsFlat) {
  hotspot_counter_invariants(FlatCombiningBackend{8});
}

TEST(BackendEquivalence, HotspotTicketsSim) {
  // Real threads multiplexed onto simulated processors via the mailboxes;
  // the ticket invariants must survive the indirection.
  hotspot_counter_invariants(SimBackend{SimBackendConfig{.log2_procs = 3}});
}

// --- the combining tree behind CombiningBackend ------------------------------

TEST(CombiningTree, SingleThreadSequence) {
  const CombiningBackend b(4);
  CombiningBackend::Cell c(b, 100);
  EXPECT_EQ(b.fetch_add(c, 5), 100u);
  EXPECT_EQ(b.fetch_add(c, 7), 105u);
  EXPECT_EQ(b.fetch_add(c, 1), 112u);
  EXPECT_EQ(b.load(c), 113u);
  EXPECT_EQ(c.combiner.slots(), 4u);
}

TEST(CombiningTree, ConcurrentIncrementsGiveDistinctTickets) {
  // An odd width, as sizing to a 3-core host would ask for:
  // the heap rounds up to 4 slots and the thread→slot modulo is taken at 4.
  hotspot_counter_invariants(CombiningBackend{3});
}

TEST(CombiningTree, TwoThreadsPerLeafShareCorrectly) {
  // Width 2: both slots share the root's leaf — the most combining-prone
  // shape — and from 4 threads on, slots are shared too.
  hotspot_counter_invariants(CombiningBackend{2});
}

TEST(CombiningTree, ArbitraryAddendsConserveSum) {
  for (const unsigned nt : {2u, 4u, 8u}) {
    const CombiningBackend b(8);
    CombiningBackend::Cell c(b, 0);
    constexpr unsigned kPer = 200;
    std::atomic<Word> expected{0};
    {
      std::vector<std::jthread> ts;
      for (unsigned t = 0; t < nt; ++t) {
        ts.emplace_back([&, t] {
          Word local = 0;
          for (unsigned i = 0; i < kPer; ++i) {
            const Word v = (t * kPer + i) % 17 + 1;
            b.fetch_add(c, v);
            local += v;
          }
          expected.fetch_add(local);
        });
      }
    }
    EXPECT_EQ(b.load(c), expected.load()) << nt << " threads";
  }
}

TEST(CombiningTree, FetchMaxThroughEveryPhase) {
  // A non-plus family through precombine / combine / operate / distribute:
  // the final value is the max over every deposited operand.
  const CombiningBackend b(4);
  CombiningBackend::Cell c(b, 0);
  {
    std::vector<std::jthread> ts;
    for (unsigned t = 0; t < 4; ++t) {
      ts.emplace_back([&, t] {
        for (unsigned i = 1; i <= 300; ++i) {
          b.fetch_rmw(c, AnyRmw(krs::core::FetchMax(t * 1000 + i)));
        }
      });
    }
  }
  EXPECT_EQ(b.load(c), 3300u);
}

TEST(CombiningTree, CompareExchangeLinearizesWithDirectAndCombinedAdds) {
  // compare_exchange is a CAS loop on the root word, racing direct CASes
  // and combined root applies. Each thread alternates fetch_add(1) with a
  // load-then-compare_exchange(e, e+1) retry loop; if any root write were
  // a plain store, it could overwrite a concurrent increment.
  constexpr unsigned kRounds = 10000;
  for (const unsigned nt : {4u, 8u}) {
    const CombiningBackend b(4);
    CombiningBackend::Cell c(b, 0);
    {
      std::vector<std::jthread> ts;
      for (unsigned t = 0; t < nt; ++t) {
        ts.emplace_back([&] {
          for (unsigned i = 0; i < kRounds; ++i) {
            b.fetch_add(c, 1);
            Word e = b.load(c);
            while (!b.compare_exchange(c, e, e + 1)) {
            }
          }
        });
      }
    }
    EXPECT_EQ(b.load(c), static_cast<Word>(2) * nt * kRounds)
        << nt << " threads";
  }
}

// --- the lock-free tree below the seam, slot by slot -------------------------
//
// The same invariants on MappingCombiningTree itself, with each thread
// naming its slot explicitly instead of going through the backend's
// thread→slot map.

using AddTree = MappingCombiningTree<AnyRmw>;

Word tree_add(AddTree& tree, unsigned slot, Word v) {
  return tree.fetch_rmw(slot, AnyRmw(FetchAdd(v)));
}

TEST(LockFreeCombiningTree, SingleThreadSequence) {
  AddTree tree(4, 100);
  EXPECT_EQ(tree_add(tree, 0, 5), 100u);
  EXPECT_EQ(tree_add(tree, 1, 7), 105u);
  EXPECT_EQ(tree_add(tree, 3, 1), 112u);
  EXPECT_EQ(tree.read(), 113u);
  EXPECT_EQ(tree.slots(), 4u);
}

TEST(LockFreeCombiningTree, ConcurrentIncrementsGiveDistinctTickets) {
  for (const unsigned nt : {2u, 4u, 8u}) {
    AddTree tree(8, 0);
    constexpr unsigned kPer = 300;
    std::vector<std::vector<Word>> got(nt);
    {
      std::vector<std::jthread> ts;
      for (unsigned slot = 0; slot < nt; ++slot) {
        ts.emplace_back([&, slot] {
          for (unsigned i = 0; i < kPer; ++i) {
            got[slot].push_back(tree_add(tree, slot, 1));
          }
        });
      }
    }
    std::set<Word> all;
    for (const auto& v : got) {
      // Per-thread tickets strictly increase (M2.3 at the tree level).
      EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
      all.insert(v.begin(), v.end());
    }
    EXPECT_EQ(all.size(), static_cast<std::size_t>(nt) * kPer);
    EXPECT_EQ(*all.begin(), 0u);
    EXPECT_EQ(*all.rbegin(), static_cast<Word>(nt) * kPer - 1);
    EXPECT_EQ(tree.read(), static_cast<Word>(nt) * kPer);
  }
}

TEST(LockFreeCombiningTree, ArbitraryAddendsConserveSum) {
  for (const unsigned nt : {2u, 4u, 8u}) {
    AddTree tree(8, 0);
    constexpr unsigned kPer = 200;
    std::atomic<Word> expected{0};
    {
      std::vector<std::jthread> ts;
      for (unsigned slot = 0; slot < nt; ++slot) {
        ts.emplace_back([&, slot] {
          Word local = 0;
          for (unsigned i = 0; i < kPer; ++i) {
            const Word v = (slot * kPer + i) % 17 + 1;
            tree_add(tree, slot, v);
            local += v;
          }
          expected.fetch_add(local);
        });
      }
    }
    EXPECT_EQ(tree.read(), expected.load()) << nt << " threads";
  }
}

TEST(LockFreeCombiningTree, TwoThreadsPerLeafShareCorrectly) {
  // Slots 0 and 1 share the root leaf — the most combining-prone shape.
  AddTree tree(2, 0);
  constexpr unsigned kPer = 500;
  {
    std::jthread a([&] {
      for (unsigned i = 0; i < kPer; ++i) tree_add(tree, 0, 1);
    });
    std::jthread b([&] {
      for (unsigned i = 0; i < kPer; ++i) tree_add(tree, 1, 1);
    });
  }
  EXPECT_EQ(tree.read(), 2u * kPer);
}

TEST(LockFreeCombiningTree, ReadSnapshotsWhileContended) {
  // read() must return monotonically non-decreasing snapshots while eight
  // incrementers are in flight (it loads only the root word, never a node).
  AddTree tree(8, 0);
  constexpr unsigned kPer = 400;
  std::atomic<bool> torn{false};
  {
    std::vector<std::jthread> ts;
    for (unsigned slot = 0; slot < 8; ++slot) {
      ts.emplace_back([&, slot] {
        for (unsigned i = 0; i < kPer; ++i) tree_add(tree, slot, 1);
      });
    }
    ts.emplace_back([&] {
      Word last = 0;
      for (unsigned i = 0; i < 500; ++i) {
        const Word v = tree.read();
        if (v < last) torn = true;
        last = v;
      }
    });
  }
  EXPECT_FALSE(torn.load());
  EXPECT_EQ(tree.read(), 8u * kPer);
}

// --- every §6 primitive on both backends ------------------------------------

template <typename B>
void barrier_phases(B backend, unsigned nt) {
  BasicBarrier<B> barrier(nt, backend);
  constexpr int kPhases = 40;
  std::vector<int> counters(kPhases, 0);
  std::atomic<bool> torn{false};
  {
    std::vector<std::jthread> ts;
    for (unsigned t = 0; t < nt; ++t) {
      ts.emplace_back([&] {
        for (int ph = 0; ph < kPhases; ++ph) {
          __atomic_fetch_add(&counters[ph], 1, __ATOMIC_RELAXED);
          barrier.arrive_and_wait();
          if (counters[ph] != static_cast<int>(nt)) torn = true;
        }
      });
    }
  }
  EXPECT_FALSE(torn.load());
  EXPECT_EQ(barrier.phase(), static_cast<Word>(kPhases));
}

TEST(BackendMatrix, BarrierAtomic) { barrier_phases(AtomicBackend{}, 4); }
TEST(BackendMatrix, BarrierCombining) {
  barrier_phases(CombiningBackend{4}, 4);
}
TEST(BackendMatrix, BarrierFlat) {
  barrier_phases(FlatCombiningBackend{4}, 4);
}
TEST(BackendMatrix, BarrierSim) {
  barrier_phases(SimBackend{SimBackendConfig{.log2_procs = 2}}, 4);
}

TEST(CombiningBarrier, PhasesAlignedOverLockFreeTree) {
  // The ticket barrier's arrivals combined in a width-2 tree: four parties
  // share two slots, so arrivals also meet at the slots, not only at the
  // root's leaf.
  barrier_phases(CombiningBackend{2}, 4);
}

template <typename B>
void rwlock_excludes(B backend) {
  BasicRwLock<B> lock(backend);
  long shared_value = 0;
  std::atomic<bool> bad{false};
  constexpr int kWrites = 150;
  {
    std::vector<std::jthread> ts;
    for (int w = 0; w < 2; ++w) {
      ts.emplace_back([&] {
        for (int i = 0; i < kWrites; ++i) {
          lock.write_lock();
          const long v = shared_value;
          shared_value = v + 1;  // torn unless writers exclude
          lock.write_unlock();
        }
      });
    }
    for (int r = 0; r < 2; ++r) {
      ts.emplace_back([&] {
        for (int i = 0; i < 300; ++i) {
          lock.read_lock();
          const long v = shared_value;
          if (v < 0 || v > 2 * kWrites) bad = true;
          lock.read_unlock();
        }
      });
    }
  }
  EXPECT_FALSE(bad.load());
  EXPECT_EQ(shared_value, 2 * kWrites);
}

TEST(BackendMatrix, RwLockAtomic) { rwlock_excludes(AtomicBackend{}); }
TEST(BackendMatrix, RwLockCombining) { rwlock_excludes(CombiningBackend{4}); }
TEST(BackendMatrix, RwLockFlat) { rwlock_excludes(FlatCombiningBackend{4}); }
TEST(BackendMatrix, RwLockSim) {
  rwlock_excludes(SimBackend{SimBackendConfig{.log2_procs = 2}});
}

template <typename B>
void semaphore_bounds_concurrency(B backend) {
  BasicSemaphore<B> sem(2, backend);
  std::atomic<int> inside{0};
  std::atomic<bool> over{false};
  {
    std::vector<std::jthread> ts;
    for (int t = 0; t < 4; ++t) {
      ts.emplace_back([&] {
        for (int i = 0; i < 100; ++i) {
          sem.p();
          if (inside.fetch_add(1, std::memory_order_acq_rel) >= 2) {
            over = true;
          }
          inside.fetch_sub(1, std::memory_order_acq_rel);
          sem.v();
        }
      });
    }
  }
  EXPECT_FALSE(over.load());
  EXPECT_EQ(sem.value(), 2);
}

TEST(BackendMatrix, SemaphoreAtomic) {
  semaphore_bounds_concurrency(AtomicBackend{});
}
TEST(BackendMatrix, SemaphoreCombining) {
  semaphore_bounds_concurrency(CombiningBackend{4});
}
TEST(BackendMatrix, SemaphoreFlat) {
  semaphore_bounds_concurrency(FlatCombiningBackend{4});
}
TEST(BackendMatrix, SemaphoreSim) {
  semaphore_bounds_concurrency(SimBackend{SimBackendConfig{.log2_procs = 2}});
}

template <typename B>
void queue_conserves_sum(B backend) {
  ParallelQueue<int, krs::analysis::DefaultInstrument, B> q(16, backend);
  constexpr int kProducers = 2;
  constexpr int kPer = 400;
  std::atomic<long> consumed{0};
  {
    std::vector<std::jthread> ts;
    for (int p = 0; p < kProducers; ++p) {
      ts.emplace_back([&, p] {
        for (int i = 1; i <= kPer; ++i) q.enqueue(p * kPer + i);
      });
    }
    ts.emplace_back([&] {
      for (int i = 0; i < kProducers * kPer; ++i) {
        consumed.fetch_add(q.dequeue(), std::memory_order_relaxed);
      }
    });
  }
  long expect = 0;
  for (int p = 0; p < kProducers; ++p) {
    for (int i = 1; i <= kPer; ++i) expect += p * kPer + i;
  }
  EXPECT_EQ(consumed.load(), expect);
  EXPECT_EQ(q.size(), 0u);
}

TEST(BackendMatrix, QueueAtomic) { queue_conserves_sum(AtomicBackend{}); }
TEST(BackendMatrix, QueueCombining) {
  queue_conserves_sum(CombiningBackend{4});
}
TEST(BackendMatrix, QueueFlat) {
  queue_conserves_sum(FlatCombiningBackend{4});
}
TEST(BackendMatrix, QueueSim) {
  queue_conserves_sum(SimBackend{SimBackendConfig{.log2_procs = 2}});
}

template <typename B>
void full_empty_ping_pong(B backend) {
  FullEmptyCell<int, krs::analysis::DefaultInstrument, B> cell(backend);
  constexpr int kRounds = 300;
  long got = 0;
  {
    std::jthread producer([&] {
      for (int i = 1; i <= kRounds; ++i) cell.put(i);
    });
    std::jthread consumer([&] {
      for (int i = 1; i <= kRounds; ++i) got += cell.take();
    });
  }
  EXPECT_EQ(got, static_cast<long>(kRounds) * (kRounds + 1) / 2);
  EXPECT_FALSE(cell.full());
}

TEST(BackendMatrix, FullEmptyAtomic) { full_empty_ping_pong(AtomicBackend{}); }
TEST(BackendMatrix, FullEmptyCombining) {
  full_empty_ping_pong(CombiningBackend{4});
}
TEST(BackendMatrix, FullEmptyFlat) {
  full_empty_ping_pong(FlatCombiningBackend{4});
}
TEST(BackendMatrix, FullEmptySim) {
  full_empty_ping_pong(SimBackend{SimBackendConfig{.log2_procs = 2}});
}

template <typename B>
void group_lock_excludes_groups(B backend) {
  BasicGroupLock<krs::analysis::DefaultInstrument, B> lock(backend);
  std::atomic<int> in_group[2] = {0, 0};
  std::atomic<bool> mixed{false};
  {
    std::vector<std::jthread> ts;
    for (int g = 0; g < 2; ++g) {
      for (int m = 0; m < 2; ++m) {
        ts.emplace_back([&, g] {
          for (int i = 0; i < 120; ++i) {
            lock.enter(static_cast<std::uint16_t>(g));
            in_group[g].fetch_add(1, std::memory_order_acq_rel);
            if (in_group[1 - g].load(std::memory_order_acquire) != 0) {
              mixed = true;
            }
            in_group[g].fetch_sub(1, std::memory_order_acq_rel);
            lock.leave();
          }
        });
      }
    }
  }
  EXPECT_FALSE(mixed.load());
  EXPECT_EQ(lock.member_count(), 0u);
  EXPECT_EQ(lock.active_group(), -1);
}

TEST(BackendMatrix, GroupLockAtomic) {
  group_lock_excludes_groups(AtomicBackend{});
}
TEST(BackendMatrix, GroupLockCombining) {
  group_lock_excludes_groups(CombiningBackend{4});
}
TEST(BackendMatrix, GroupLockFlat) {
  group_lock_excludes_groups(FlatCombiningBackend{4});
}
TEST(BackendMatrix, GroupLockSim) {
  group_lock_excludes_groups(SimBackend{SimBackendConfig{.log2_procs = 2}});
}

// --- instrumented HB edges through the backend seam --------------------------

using krs::analysis::ForkHandle;

TEST(BackendAnalysis, CombiningBackendOrdersTemporallySeparatedOps) {
  // Both fork edges are snapshotted BEFORE either thread runs, so the only
  // detector-visible ordering between t0's payload write and t1's read is
  // the tree's entry-acquire / exit-release edge inside fetch_rmw. The
  // atomic flag gives real-time separation without telling the detector
  // anything.
  krs::analysis::RaceDetector det;
  krs::analysis::ScopedDetector guard(det);
  BasicCombiningBackend<GlobalInstrument> backend(4);
  BasicCombiningBackend<GlobalInstrument>::Cell cell(backend, 0);
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

TEST(LockFreeCombiningTreeAnalysis, TemporallySeparatedOpsAreOrdered) {
  // The same experiment on the tree itself, each thread on its own slot:
  // the edge is the tree's entry-acquire / exit-release in fetch_rmw, with
  // no backend wrapper around it.
  krs::analysis::RaceDetector det;
  krs::analysis::ScopedDetector guard(det);
  MappingCombiningTree<AnyRmw, GlobalInstrument> tree(4, 0);
  std::atomic<int> payload{0};
  std::atomic<bool> done{false};

  ForkHandle f0;
  ForkHandle f1;
  std::thread t0([&] {
    f0.adopt();
    payload.store(7, std::memory_order_relaxed);
    krs::analysis::shadow_write(&payload, KRS_SITE);
    tree.fetch_rmw(0, AnyRmw(FetchAdd(1)));  // exit releases t0's history
    done.store(true, std::memory_order_release);
  });
  std::thread t1([&] {
    f1.adopt();
    while (!done.load(std::memory_order_acquire)) std::this_thread::yield();
    tree.fetch_rmw(1, AnyRmw(FetchAdd(1)));  // entry acquires it
    krs::analysis::shadow_read(&payload, KRS_SITE);
  });
  t0.join();
  f0.join();
  t1.join();
  f1.join();

  EXPECT_EQ(tree.read(), 2u);
  EXPECT_TRUE(det.clean()) << det.races()[0].to_string();
}

TEST(BackendAnalysis, AtomicBackendOrdersTemporallySeparatedOps) {
  krs::analysis::RaceDetector det;
  krs::analysis::ScopedDetector guard(det);
  BasicAtomicBackend<GlobalInstrument> backend;
  BasicAtomicBackend<GlobalInstrument>::Cell cell(backend, 0);
  std::atomic<int> payload{0};
  std::atomic<bool> done{false};

  ForkHandle f0;
  ForkHandle f1;
  std::thread t0([&] {
    f0.adopt();
    payload.store(9, std::memory_order_relaxed);
    krs::analysis::shadow_write(&payload, KRS_SITE);
    backend.fetch_rmw(cell, AnyRmw(FetchAdd(1)));
    done.store(true, std::memory_order_release);
  });
  std::thread t1([&] {
    f1.adopt();
    while (!done.load(std::memory_order_acquire)) std::this_thread::yield();
    backend.fetch_rmw(cell, AnyRmw(FetchAdd(1)));
    krs::analysis::shadow_read(&payload, KRS_SITE);
  });
  t0.join();
  f0.join();
  t1.join();
  f1.join();

  EXPECT_EQ(backend.load(cell), 2u);
  EXPECT_TRUE(det.clean()) << det.races()[0].to_string();
}

TEST(BackendAnalysis, WithoutTheBackendEdgeTheSameShapeRaces) {
  // Control experiment: identical structure, no backend operations — the
  // detector must flag it, proving the clean verdicts above came from the
  // cell's edge and not from some accidental ordering.
  krs::analysis::RaceDetector det;
  krs::analysis::ScopedDetector guard(det);
  std::atomic<int> payload{0};
  std::atomic<bool> done{false};

  ForkHandle f0;
  ForkHandle f1;
  std::thread t0([&] {
    f0.adopt();
    payload.store(7, std::memory_order_relaxed);
    krs::analysis::shadow_write(&payload, KRS_SITE);
    done.store(true, std::memory_order_release);
  });
  std::thread t1([&] {
    f1.adopt();
    while (!done.load(std::memory_order_acquire)) std::this_thread::yield();
    krs::analysis::shadow_read(&payload, KRS_SITE);
  });
  t0.join();
  f0.join();
  t1.join();
  f1.join();

  EXPECT_EQ(det.race_count(), 1u);
}

// --- deterministic models of the node handshake -----------------------------

using krs::verify::EAcquire;
using krs::verify::ERead;
using krs::verify::ERelease;
using krs::verify::EventProgram;
using krs::verify::EWrite;
using krs::verify::explore_races;

TEST(CombineModel, NodeHandshakeIsRaceFreeUnderAllSchedules) {
  // Abstract model of one combine at one node. Var 0 = the second's
  // deposited mapping slot, var 1 = the node's result slot; lock 0 = the
  // node's status word, whose CAS transitions carry the release/acquire
  // edges. The first (thread 0) reads the deposit and writes the reply;
  // the second (thread 1) deposits then picks the reply up. Every edge is
  // mediated by the status word — no schedule may report a race.
  EventProgram prog;
  prog.threads = {
      // first: combine (acquire status, read deposit) → distribute
      // (write result, release status)
      {EAcquire{0}, ERead{0}, EWrite{1}, ERelease{0}},
      // second: deposit (write mapping, release status) → await
      // (acquire status, read result)
      {EAcquire{0}, EWrite{0}, ERelease{0}, EAcquire{0}, ERead{1},
       ERelease{0}},
  };
  const auto res = explore_races(prog);
  EXPECT_GT(res.schedules, 0u);
  EXPECT_TRUE(res.never_racy())
      << res.racy_schedules << " of " << res.schedules << " schedules racy";
}

TEST(CombineModel, DepositWithoutStatusEdgeAlwaysRaces) {
  // Drop the status-word edges entirely: the second deposits and reads
  // the reply with no synchronization. With no release/acquire pair there
  // is no cross-thread happens-before edge at all, so the detector must
  // flag EVERY schedule (the defining property over lockset or sampling
  // detectors — the race is visible even in schedules where the accesses
  // did not physically collide). Note the second may not touch lock 0
  // even once: a single trailing release would order a schedule where it
  // runs entirely first, and that schedule would then be clean.
  EventProgram prog;
  prog.threads = {
      {EAcquire{0}, ERead{0}, EWrite{1}, ERelease{0}},
      {EWrite{0}, ERead{1}},  // naked deposit + naked reply pickup
  };
  const auto res = explore_races(prog);
  EXPECT_GT(res.schedules, 0u);
  EXPECT_TRUE(res.always_racy())
      << res.racy_schedules << " of " << res.schedules << " schedules racy";
}

TEST(CombineModel, DirectCasRacingRootApplyIsRaceFree) {
  // A direct root CAS (thread 1) against a first applying its combined
  // mapping at the root (thread 0). Var 0 = the root value; lock 1 = the
  // root word: both sides are atomic read-modify-writes of it, so each is
  // one indivisible acquire-read-write-release step. The first also holds
  // its node (lock 0) across the apply, as the four-phase protocol does;
  // the direct path never touches a node. No schedule may race.
  EventProgram prog;
  prog.threads = {
      {EAcquire{0}, EAcquire{1}, ERead{0}, EWrite{0}, ERelease{1},
       ERelease{0}},
      {EAcquire{1}, ERead{0}, EWrite{0}, ERelease{1}},
  };
  const auto res = explore_races(prog);
  EXPECT_GT(res.schedules, 0u);
  EXPECT_TRUE(res.never_racy())
      << res.racy_schedules << " of " << res.schedules << " schedules racy";
}

TEST(CombineModel, RootApplyUnderLockTheDirectPathSkipsAlwaysRaces) {
  // Control: the first applies at the root with a naked read + write
  // under a root lock (lock 2) that the direct CAS never takes. The two
  // sides then share no synchronization at all, so every schedule races
  // — the lost update a lock-bit root apply would suffer against a
  // direct CAS.
  EventProgram prog;
  prog.threads = {
      {EAcquire{0}, EAcquire{2}, ERead{0}, EWrite{0}, ERelease{2},
       ERelease{0}},
      {EAcquire{1}, ERead{0}, EWrite{0}, ERelease{1}},
  };
  const auto res = explore_races(prog);
  EXPECT_GT(res.schedules, 0u);
  EXPECT_TRUE(res.always_racy())
      << res.racy_schedules << " of " << res.schedules << " schedules racy";
}

TEST(DeclinedCombineModel, RootServiceOfDeclinedSecondIsRaceFree) {
  // Abstract model of one DECLINED combine: var 0 = the second's deposited
  // mapping slot, var 1 = the root value, var 2 = the node's result slot;
  // lock 0 = the node status word, lock 1 = the root word, whose atomic
  // read-modify-writes make each root application one indivisible step.
  // The first (thread 0) reads the deposit, finds the composition
  // declined, applies the second's mapping at the root during distribute,
  // writes the reply. The second (thread 1) deposits, then picks the reply
  // up. Every edge is mediated by one of the two words — no schedule may
  // report a race.
  EventProgram prog;
  prog.threads = {
      // first: combine (acquire status, read deposit) → declined root
      // service (one RMW of the root word) → distribute reply.
      {EAcquire{0}, ERead{0}, EAcquire{1}, ERead{1}, EWrite{1}, ERelease{1},
       EWrite{2}, ERelease{0}},
      // second: deposit (write mapping, release status) → await (acquire
      // status, read reply).
      {EAcquire{0}, EWrite{0}, ERelease{0}, EAcquire{0}, ERead{2},
       ERelease{0}},
  };
  const auto res = explore_races(prog);
  EXPECT_GT(res.schedules, 0u);
  EXPECT_TRUE(res.never_racy())
      << res.racy_schedules << " of " << res.schedules << " schedules racy";
}

TEST(DeclinedCombineModel, DlsNackRetryAfterRootServiceIsRaceFree) {
  // The §5.6 variant of root service: the declined second is a GUARDED
  // operation whose reply (the prior word) told the issuer NACK, so the
  // issuer retries at the root. Same vars/locks as above, plus the retry:
  // thread 1 applies one more RMW of the root word after reading its
  // reply. Every edge stays mediated by the status word or the root
  // word — race-free.
  EventProgram prog;
  prog.threads = {
      // first: combine (acquire status, read deposit) → declined root
      // service → distribute reply.
      {EAcquire{0}, ERead{0}, EAcquire{1}, ERead{1}, EWrite{1}, ERelease{1},
       EWrite{2}, ERelease{0}},
      // second: deposit → pickup → decode nack off the prior → retry the
      // guarded op directly on the root word.
      {EAcquire{0}, EWrite{0}, ERelease{0}, EAcquire{0}, ERead{2},
       ERelease{0}, EAcquire{1}, ERead{1}, EWrite{1}, ERelease{1}},
  };
  const auto res = explore_races(prog);
  EXPECT_GT(res.schedules, 0u);
  EXPECT_TRUE(res.never_racy())
      << res.racy_schedules << " of " << res.schedules << " schedules racy";
}

TEST(DeclinedCombineModel, NakedDepositAndPickupAlwaysRaces) {
  // Control: drop the second's status-word edges. With no release/acquire
  // pair there is no cross-thread ordering at all, so every schedule must
  // be flagged — proving the clean verdict above comes from the modeled
  // handshake, not detector blindness.
  EventProgram prog;
  prog.threads = {
      {EAcquire{0}, ERead{0}, EAcquire{1}, ERead{1}, EWrite{1}, ERelease{1},
       EWrite{2}, ERelease{0}},
      {EWrite{0}, ERead{2}},  // naked deposit + naked reply pickup
  };
  const auto res = explore_races(prog);
  EXPECT_GT(res.schedules, 0u);
  EXPECT_TRUE(res.always_racy())
      << res.racy_schedules << " of " << res.schedules << " schedules racy";
}

// --- §5.6 guarded operations through every substrate --------------------------

using krs::core::dls_pack;
using krs::core::DlsCell;

// The same scripted guarded-op session (including two protocol-violating
// nacks that must leave the cell untouched) through any backend: the
// prior-word stream is the observable, and it must be identical.
template <typename B>
std::vector<Word> scripted_dls_run(B& b) {
  const krs::workload::FileSessionPath fs;
  typename B::Cell c(b, dls_pack({100, 0}));
  std::vector<Word> out;
  for (const auto& op : {fs.read(),       // closed: NACK, unchanged
                         fs.open(),       // → open
                         fs.read(),       //
                         fs.append(7),    // content ← 7
                         fs.open(),       // already open: NACK
                         fs.close(),      // → closed
                         fs.open()}) {    // reopen
    out.push_back(b.fetch_rmw(c, AnyRmw(op)));
  }
  out.push_back(b.load(c));
  return out;
}

TEST(BackendEquivalence, ScriptedDlsOpsAgree) {
  AtomicBackend ab;
  CombiningBackend cb(4);
  FlatCombiningBackend fb(4);
  SimBackend sb(SimBackendConfig{.log2_procs = 2});
  const auto a = scripted_dls_run(ab);
  EXPECT_EQ(scripted_dls_run(cb), a);
  EXPECT_EQ(scripted_dls_run(fb), a);
  EXPECT_EQ(scripted_dls_run(sb), a);
  const std::vector<Word> expect{
      dls_pack({100, 0}), dls_pack({100, 0}), dls_pack({100, 1}),
      dls_pack({100, 1}), dls_pack({7, 1}),   dls_pack({7, 1}),
      dls_pack({7, 0}),   dls_pack({7, 1})};
  EXPECT_EQ(a, expect);
}

TEST(BackendEquivalence, ScriptedDlsOpsAgreeSharded) {
  AtomicBackend ab;
  ShardedBackend<AtomicBackend> sharded_atomic{AtomicBackend{}, 4};
  ShardedBackend<CombiningBackend> sharded_tree{CombiningBackend{4}, 4};
  const auto base = scripted_dls_run(ab);
  EXPECT_EQ(scripted_dls_run(sharded_atomic), base);
  EXPECT_EQ(scripted_dls_run(sharded_tree), base);
}

// One DECLINED §5.6 fold, driven deterministically: two puts whose wire
// budget is narrowed to one value slot meet at a leaf, try_compose
// declines, and the declined second is served individually at the root —
// its reply carries the prior it actually saw there, so the issuer's
// succeeded() decode is exact.
TEST(CombineTelemetry, DlsDeclinedFoldServedAtRoot) {
  const krs::workload::ProducerConsumerPath pc;
  const auto budget = pc.put(111).encoded_size_bytes();  // one value slot
  MappingCombiningTree<AnyRmw> tree(8, dls_pack({0, 0}));
  EXPECT_TRUE(Peer::precombine(tree, 4));
  EXPECT_TRUE(Peer::precombine(tree, 2));
  EXPECT_FALSE(Peer::precombine(tree, 1));
  EXPECT_FALSE(Peer::precombine(tree, 4));
  Peer::deposit_second(tree, 4,
                       AnyRmw(pc.put(222).with_size_budget(budget)));
  AnyRmw combined =
      Peer::combine(tree, 4, AnyRmw(pc.put(111).with_size_budget(budget)));
  EXPECT_EQ(tree.declined_folds_at(4), 1u);
  combined = Peer::combine(tree, 2, std::move(combined));  // no partner
  const Word prior = Peer::apply_at_root(tree, combined);
  EXPECT_EQ(prior, dls_pack({0, 0}));
  EXPECT_EQ(tree.read(), dls_pack({111, 1}));
  Peer::distribute(tree, 2, prior);
  Peer::distribute(tree, 4, prior);
  // The declined second ran at the root AFTER the first: occupancy 2.
  EXPECT_EQ(tree.read(), dls_pack({222, 2}));
  const Word second_prior = Peer::take_result(tree, 4);
  EXPECT_EQ(second_prior, dls_pack({111, 1}));
  EXPECT_TRUE(pc.put(222).succeeded(second_prior));
  const CombiningTreeStats st = tree.stats();
  EXPECT_EQ(st.folds, 0u);
  EXPECT_EQ(st.declined_folds, 1u);
  EXPECT_EQ(st.root_applies, 2u);
  EXPECT_EQ(st.direct_applies, 0u);
}

// Control: two puts whose composition carries ONE store value (the same
// value twice) fold at the default budget into one root application, and
// the second's reply is the decombination first_map.apply(prior) — the
// state the second actually observed. Two distinct values decline: DLS's
// wire form carries one.
TEST(CombineTelemetry, DlsFoldAtDefaultBudgetCombines) {
  const krs::workload::ProducerConsumerPath pc;
  MappingCombiningTree<AnyRmw> tree(8, dls_pack({0, 0}));
  EXPECT_TRUE(Peer::precombine(tree, 4));
  EXPECT_TRUE(Peer::precombine(tree, 2));
  EXPECT_FALSE(Peer::precombine(tree, 1));
  EXPECT_FALSE(Peer::precombine(tree, 4));
  Peer::deposit_second(tree, 4, AnyRmw(pc.put(111)));
  AnyRmw combined = Peer::combine(tree, 4, AnyRmw(pc.put(111)));
  EXPECT_EQ(tree.declined_folds_at(4), 0u);
  combined = Peer::combine(tree, 2, std::move(combined));
  const Word prior = Peer::apply_at_root(tree, combined);
  EXPECT_EQ(prior, dls_pack({0, 0}));
  // ONE root application carried both automaton transitions.
  EXPECT_EQ(tree.read(), dls_pack({111, 2}));
  Peer::distribute(tree, 2, prior);
  Peer::distribute(tree, 4, prior);
  const Word second_prior = Peer::take_result(tree, 4);
  EXPECT_EQ(second_prior, dls_pack({111, 1}));
  EXPECT_TRUE(pc.put(111).succeeded(second_prior));
  // The decline case at the same budget: two distinct values.
  EXPECT_FALSE(
      try_compose(AnyRmw(pc.put(111)), AnyRmw(pc.put(222))).has_value());
  const CombiningTreeStats st = tree.stats();
  EXPECT_EQ(st.folds, 1u);
  EXPECT_EQ(st.declined_folds, 0u);
  EXPECT_EQ(st.root_applies, 1u);
  EXPECT_EQ(st.direct_applies, 0u);
}

}  // namespace
