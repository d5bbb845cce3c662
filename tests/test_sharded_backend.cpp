// The sharded substrate's OWN contract, beyond the cross-backend
// equivalence rows in test_backends.cpp:
//
//  * routing determinism — a logical client pinned with ScopedRouteKey
//    keeps its shard across worker-thread churn (spawn/join waves that
//    recycle thread ordinals), the property krs-bench's M:N
//    clients_sharded workload depends on;
//  * the striped key→shard map (key mod S);
//  * the relaxed-semantics invariants that DO survive sharding: sum
//    conservation under concurrent clients, aggregation folds (sum /
//    bit_or / max), store()-quiescing, per-shard telemetry shares, and
//    each shard's op counter sitting on that shard's own cache line;
//  * shards = 1 degrading to exactly the inner backend (globally
//    distinct fetch_add tickets);
//  * a cell routing within its own block when a backend of another S
//    drives it;
//  * a race_explorer model of the aggregation read: per-shard reads
//    mediated by per-shard synchronization are race-free on EVERY
//    schedule with no global lock — plus a naked-read control proving
//    the verdict comes from the modeled per-shard edges.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runtime/combining_backend.hpp"
#include "runtime/flat_combining.hpp"
#include "runtime/rmw_backend.hpp"
#include "runtime/sharded_backend.hpp"
#include "verify/race_explorer.hpp"

namespace {

using namespace krs::runtime;
using Word = krs::core::Word;

// --- routing determinism -----------------------------------------------------

TEST(ShardedRouting, ScopedRouteKeyPinsShardAcrossThreadChurn) {
  // Three waves of short-lived worker threads; each wave re-resolves the
  // shard of the same 16 logical clients under ScopedRouteKey. Thread
  // ordinals are recycled wave to wave, so any dependence on the WORKER
  // identity (rather than the installed client key) would move a client's
  // shard between waves.
  constexpr unsigned kShards = 4;
  constexpr unsigned kClients = 16;
  ShardedBackend<AtomicBackend> b{AtomicBackend{}, kShards};
  ShardedBackend<AtomicBackend>::Cell cell(b, 0);

  std::vector<std::vector<unsigned>> wave_shards;
  for (int wave = 0; wave < 3; ++wave) {
    std::vector<unsigned> shards(kClients, ~0u);
    std::thread worker([&] {
      for (unsigned c = 0; c < kClients; ++c) {
        ScopedRouteKey route(c);
        shards[c] = b.shard_of();
        b.fetch_add(cell, 1);
      }
    });
    worker.join();
    wave_shards.push_back(std::move(shards));
  }
  for (unsigned c = 0; c < kClients; ++c) {
    EXPECT_EQ(wave_shards[0][c], b.shard_of_key(c)) << "client " << c;
    EXPECT_EQ(wave_shards[1][c], wave_shards[0][c]) << "client " << c;
    EXPECT_EQ(wave_shards[2][c], wave_shards[0][c]) << "client " << c;
  }
  // 3 waves × 16 striped clients → 12 ops in each of the 4 shards, and
  // the shard cells hold exactly the traffic their clients deposited.
  for (unsigned s = 0; s < kShards; ++s) {
    EXPECT_EQ(b.inner().load(b.shard_cell(cell, s)), 12u) << "shard " << s;
  }
  EXPECT_EQ(b.load(cell), 48u);
}

TEST(ShardedRouting, ScopedRouteKeyNestsAndRestores) {
  ShardedBackend<AtomicBackend> b{AtomicBackend{}, 4};
  {
    ScopedRouteKey outer(1);
    EXPECT_EQ(b.shard_of(), b.shard_of_key(1));
    {
      ScopedRouteKey inner(2);
      EXPECT_EQ(b.shard_of(), b.shard_of_key(2));
    }
    EXPECT_EQ(b.shard_of(), b.shard_of_key(1));
  }
  // With no override the key falls back to the worker's thread ordinal.
  EXPECT_EQ(b.shard_of(), b.shard_of_key(thread_ordinal()));
}

TEST(ShardedRouting, StripedAndHashedKeyMaps) {
  // Striped: consecutive keys round-robin (the Ultracomputer stripe).
  constexpr unsigned kShards = 8;
  ShardedBackend<AtomicBackend> striped{AtomicBackend{}, kShards};
  for (std::uint64_t k = 0; k < 256; ++k) {
    EXPECT_EQ(striped.shard_of_key(k), k % kShards);
  }
}

// --- relaxed-semantics invariants -------------------------------------------

template <typename B>
void sum_conservation(B backend, unsigned nthreads) {
  typename B::Cell cell(backend, 0);
  constexpr std::uint64_t kOpsPerClient = 512;
  const unsigned clients = nthreads * 3;  // M logical clients on N workers
  std::vector<std::thread> ts;
  ts.reserve(nthreads);
  for (unsigned w = 0; w < nthreads; ++w) {
    ts.emplace_back([&, w] {
      for (unsigned c = w; c < clients; c += nthreads) {
        ScopedRouteKey route(c);
        for (std::uint64_t i = 0; i < kOpsPerClient; ++i) {
          backend.fetch_add(cell, 1);
        }
      }
    });
  }
  for (auto& t : ts) t.join();
  // The shard-decomposable invariant survives: aggregate == total adds.
  EXPECT_EQ(backend.load(cell), clients * kOpsPerClient);
  const auto stats = backend.cell_stats(cell);
  EXPECT_EQ(stats.total(), clients * kOpsPerClient);
  // Striped clients spread evenly; no shard hoards the traffic (the
  // krs-profile acceptance shape: worst share ≤ 2/S).
  EXPECT_LE(stats.max_share(), 2.0 / backend.shards());
}

TEST(ShardedSemantics, SumConservedAcrossInnersAndThreadCounts) {
  for (const unsigned n : {2u, 4u, 8u}) {
    sum_conservation(ShardedBackend<AtomicBackend>{AtomicBackend{}, 4}, n);
  }
  sum_conservation(ShardedBackend<CombiningBackend>{CombiningBackend{8}, 4},
                   4);
  sum_conservation(
      ShardedBackend<FlatCombiningBackend>{FlatCombiningBackend{8}, 4}, 4);
}

TEST(ShardedSemantics, SingleShardDegradesToGloballyDistinctTickets) {
  // shards = 1: every client routes to the one inner cell, so fetch_add
  // priors are globally distinct tickets again — the escape hatch the
  // header promises callers who need a total order.
  ShardedBackend<AtomicBackend> b{AtomicBackend{}, 1};
  ShardedBackend<AtomicBackend>::Cell cell(b, 0);
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kOps = 1024;
  std::vector<std::vector<Word>> priors(kThreads);
  std::vector<std::thread> ts;
  for (unsigned w = 0; w < kThreads; ++w) {
    ts.emplace_back([&, w] {
      ScopedRouteKey route(w);
      priors[w].reserve(kOps);
      for (std::uint64_t i = 0; i < kOps; ++i) {
        priors[w].push_back(b.fetch_add(cell, 1));
      }
    });
  }
  for (auto& t : ts) t.join();
  std::set<Word> seen;
  for (const auto& p : priors) seen.insert(p.begin(), p.end());
  EXPECT_EQ(seen.size(), kThreads * kOps);
  EXPECT_EQ(*seen.rbegin(), kThreads * kOps - 1);
  EXPECT_EQ(b.load(cell), kThreads * kOps);
}

TEST(ShardedSemantics, CellRoutesWithinItsOwnBlock) {
  // A cell keeps the S it was built with: driven through a backend of a
  // wider S, every key still lands in the cell's one shard, so nothing is
  // written past its block and the fold sees every add.
  const ShardedBackend<AtomicBackend> narrow{AtomicBackend{}, 1};
  const ShardedBackend<AtomicBackend> wide{AtomicBackend{}, 4};
  ShardedBackend<AtomicBackend>::Cell cell(narrow, 0);
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kOps = 1000;
  {
    std::vector<std::jthread> ts;
    for (unsigned k = 0; k < kThreads; ++k) {
      ts.emplace_back([&, k] {
        ScopedRouteKey route(k);
        for (std::uint64_t i = 0; i < kOps; ++i) wide.fetch_add(cell, 1);
      });
    }
  }
  EXPECT_EQ(wide.load(cell), kThreads * kOps);
  const auto stats = wide.cell_stats(cell);
  ASSERT_EQ(stats.shard_ops.size(), 1u);
  EXPECT_EQ(stats.shard_ops[0], kThreads * kOps);
  {
    ScopedRouteKey route(3);
    EXPECT_EQ(wide.shard_of(), 3u);
    EXPECT_EQ(wide.shard_of(cell), 0u);
    wide.store(cell, 9);
  }
  EXPECT_EQ(wide.load(cell), 9u);
}

TEST(ShardedSemantics, AggregationFoldsAndStoreQuiesces) {
  ShardedBackend<AtomicBackend> b{AtomicBackend{}, 4};

  // bit_or: each client contributes its flag bit from its own shard;
  // load() is the union, and a fresh cell's aggregate is its initial.
  b.set_aggregation(Aggregation::bit_or());
  ShardedBackend<AtomicBackend>::Cell flags(b, 0x100);
  EXPECT_EQ(b.load(flags), 0x100u);
  for (unsigned c = 0; c < 4; ++c) {
    ScopedRouteKey route(c);
    b.fetch_or(flags, Word{1} << c);
  }
  EXPECT_EQ(b.load(flags), 0x10Fu);

  // max: a watermark folds to the largest shard value.
  b.set_aggregation(Aggregation::max());
  ShardedBackend<AtomicBackend>::Cell peak(b, 7);
  for (unsigned c = 0; c < 4; ++c) {
    ScopedRouteKey route(c);
    b.exchange(peak, 10 * c);
  }
  EXPECT_EQ(b.load(peak), 30u);

  // store() quiesces: identity everywhere, v at the routed shard, so the
  // aggregate is exactly v no matter what the shards held before.
  b.set_aggregation(Aggregation::sum());
  ShardedBackend<AtomicBackend>::Cell counter(b, 0);
  for (unsigned c = 0; c < 8; ++c) {
    ScopedRouteKey route(c);
    b.fetch_add(counter, 100);
  }
  EXPECT_EQ(b.load(counter), 800u);
  b.store(counter, 5);
  EXPECT_EQ(b.load(counter), 5u);
}

TEST(ShardedSemantics, PerShardTelemetryTracksRoutedTraffic) {
  ShardedBackend<AtomicBackend> b{AtomicBackend{}, 4};
  ShardedBackend<AtomicBackend>::Cell cell(b, 0);
  // 1 op for client 0, 2 for client 1, 3 for client 2, 4 for client 3 —
  // striped routing puts client c's ops in shard c.
  for (unsigned c = 0; c < 4; ++c) {
    ScopedRouteKey route(c);
    for (unsigned i = 0; i <= c; ++i) b.fetch_add(cell, 1);
  }
  const auto stats = b.cell_stats(cell);
  ASSERT_EQ(stats.shard_ops.size(), 4u);
  for (unsigned s = 0; s < 4; ++s) EXPECT_EQ(stats.shard_ops[s], s + 1);
  EXPECT_EQ(stats.total(), 10u);
  EXPECT_DOUBLE_EQ(stats.max_share(), 0.4);
}

TEST(ShardedSemantics, ShardCounterSharesItsShardsLine) {
  // Each shard's op counter sits on that shard's cache line, so routed
  // traffic to different shards never touches a common line.
  ShardedBackend<AtomicBackend> b{AtomicBackend{}, 8};
  ShardedBackend<AtomicBackend>::Cell cell(b, 0);
  const auto line = [](const void* p) {
    return reinterpret_cast<std::uintptr_t>(p) / kCacheLine;
  };
  std::set<std::uintptr_t> lines;
  for (unsigned s = 0; s < b.shards(); ++s) {
    EXPECT_EQ(line(&cell.slots[s].ops), line(&b.shard_cell(cell, s)))
        << "shard " << s;
    lines.insert(line(&b.shard_cell(cell, s)));
  }
  EXPECT_EQ(lines.size(), b.shards());
}

// --- the shard block's layout and lifetime -----------------------------------

TEST(ShardedLayout, ShardsFormOneLineAlignedBlock) {
  // The S shards are one line-aligned block: shard s starts s lines past
  // the base.
  for (const unsigned shards : {1u, 3u, 8u}) {
    ShardedBackend<AtomicBackend> b{AtomicBackend{}, shards};
    ShardedBackend<AtomicBackend>::Cell cell(b, 0);
    const auto base = reinterpret_cast<std::uintptr_t>(&cell.slots[0]);
    EXPECT_EQ(base % kCacheLine, 0u) << "S = " << shards;
    for (unsigned s = 0; s < shards; ++s) {
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&b.shard_cell(cell, s)),
                base + std::uintptr_t{s} * kCacheLine)
          << "S = " << shards << ", shard " << s;
    }
  }
}

/// What the counting substrate's cells saw: each construction's sequence
/// number in destruction order, and the construction that throws.
struct Lifetimes {
  unsigned built = 0;
  std::vector<unsigned> destroyed;
  unsigned throw_at = ~0u;
};

/// A test-only inner substrate whose cells record their construction and
/// destruction; the `throw_at`-th construction (from 0) throws instead.
class CountingBackend : public MappingOps<CountingBackend> {
 public:
  explicit CountingBackend(Lifetimes& log) : log_(&log) {}

  struct Cell {
    Cell(const CountingBackend& b, Word v)
        : log(b.log_), seq(b.log_->built), word(v) {
      if (seq == log->throw_at) throw std::runtime_error("shard cell");
      ++log->built;
    }
    Cell(const Cell&) = delete;
    Cell& operator=(const Cell&) = delete;
    ~Cell() { log->destroyed.push_back(seq); }

    Lifetimes* log;
    unsigned seq;
    std::atomic<Word> word;
  };

  Word fetch_rmw(Cell& c, const krs::core::AnyRmw& m) const {
    Word cur = c.word.load();
    while (!c.word.compare_exchange_weak(cur, m.apply(cur))) {
    }
    return cur;
  }
  bool compare_exchange(Cell& c, Word& expected, Word desired) const {
    return c.word.compare_exchange_strong(expected, desired);
  }
  Word load(const Cell& c) const { return c.word.load(); }
  void store(Cell& c, Word v) const { c.word.store(v); }

 private:
  Lifetimes* log_;
};

TEST(ShardedLifetime, EachShardBuiltOnceAndDestroyedOnce) {
  // Shards are built in shard order and destroyed once each, in reverse.
  for (const unsigned shards : {1u, 3u, 8u}) {
    Lifetimes log;
    const ShardedBackend<CountingBackend> b{CountingBackend{log}, shards};
    {
      ShardedBackend<CountingBackend>::Cell cell(b, 7);
      EXPECT_EQ(log.built, shards);
      EXPECT_TRUE(log.destroyed.empty());
      EXPECT_EQ(b.load(cell), 7u);
      for (unsigned s = 0; s < shards; ++s) {
        EXPECT_EQ(b.shard_cell(cell, s).seq, s) << "S = " << shards;
      }
    }
    EXPECT_EQ(log.built, shards);
    std::vector<unsigned> reverse(shards);
    for (unsigned s = 0; s < shards; ++s) reverse[s] = shards - 1 - s;
    EXPECT_EQ(log.destroyed, reverse) << "S = " << shards;
  }
}

TEST(ShardedLifetime, ThrowingShardUnwindsTheBuiltPrefix) {
  // The k-th shard's constructor throws: the exception reaches the caller,
  // the k shards already built are destroyed (in reverse), and the block
  // is freed (the asan build's leak check sees it otherwise).
  constexpr unsigned kShards = 8;
  for (unsigned k = 0; k < kShards; ++k) {
    Lifetimes log;
    log.throw_at = k;
    const ShardedBackend<CountingBackend> b{CountingBackend{log}, kShards};
    const auto build = [&] {
      const ShardedBackend<CountingBackend>::Cell cell(b, 1);
    };
    EXPECT_THROW(build(), std::runtime_error) << "k = " << k;
    EXPECT_EQ(log.built, k);
    std::vector<unsigned> reverse(k);
    for (unsigned s = 0; s < k; ++s) reverse[s] = k - 1 - s;
    EXPECT_EQ(log.destroyed, reverse) << "k = " << k;
  }
}

// --- aggregation-read linearization model ------------------------------------

using krs::verify::EAcquire;
using krs::verify::ERead;
using krs::verify::ERelease;
using krs::verify::EventProgram;
using krs::verify::EWrite;
using krs::verify::explore_races;

TEST(ShardedAggregationModel, PerShardMediatedFoldIsRaceFreeEverywhere) {
  // Abstract model of one aggregation read over two shards: var 0 / var 1
  // are the shard words, lock 0 / lock 1 the shards' OWN synchronization
  // (the inner substrate's atomicity). Threads 0 and 1 are updaters, each
  // writing its routed shard under that shard's lock; thread 2 is the
  // aggregation read, folding shard by shard — acquiring each shard's
  // lock only for that shard's read, never both at once. No global lock
  // exists anywhere, yet every schedule is race-free: the sharded load()
  // contract (per-shard atomicity, no cross-shard snapshot) is exactly
  // enough synchronization.
  EventProgram prog;
  prog.threads = {
      {EAcquire{0}, ERead{0}, EWrite{0}, ERelease{0}},  // update shard 0
      {EAcquire{1}, ERead{1}, EWrite{1}, ERelease{1}},  // update shard 1
      {EAcquire{0}, ERead{0}, ERelease{0},              // fold shard 0...
       EAcquire{1}, ERead{1}, ERelease{1}},             // ...then shard 1
  };
  const auto res = explore_races(prog);
  EXPECT_GT(res.schedules, 0u);
  EXPECT_TRUE(res.never_racy())
      << res.racy_schedules << " of " << res.schedules << " schedules racy";
}

TEST(ShardedAggregationModel, NakedFoldAlwaysRaces) {
  // Control: the same fold with the per-shard mediation dropped — a reader
  // that peeks at the shard words directly (the bug shard_cell() makes
  // possible) races with both updaters on every schedule, proving the
  // clean verdict above comes from the modeled per-shard edges.
  EventProgram prog;
  prog.threads = {
      {EAcquire{0}, ERead{0}, EWrite{0}, ERelease{0}},
      {EAcquire{1}, ERead{1}, EWrite{1}, ERelease{1}},
      {ERead{0}, ERead{1}},  // naked fold
  };
  const auto res = explore_races(prog);
  EXPECT_GT(res.schedules, 0u);
  EXPECT_TRUE(res.always_racy())
      << res.racy_schedules << " of " << res.schedules << " schedules racy";
}

}  // namespace
