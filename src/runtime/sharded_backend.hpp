// The sharded RMW substrate: spread the hot spot, aggregate on read.
//
// The paper's combining collapses a hot word's traffic IN-NETWORK; this
// header is the dual optimization the Pfister–Norton model equally
// motivates: spread the load across MANY cells so no single memory module
// saturates, and fold the pieces back together only when somebody reads.
// A `ShardedBackend<Inner>::Cell` stripes one logical word across S
// per-shard `Inner` cells (any substrate: hardware atomics, the combining
// tree, the flat combiner, the simulated machine), each on its own cache
// line of one line-aligned block. Updates touch exactly ONE shard — so
// they stay combinable inside that shard's own substrate — while `load()`
// folds the shard values with the cell's semigroup operation (sum for
// counters, union for flag words): the write-cheap/read-folds structure
// of a write-and-f-array, with the §3 decombination chain run at read time
// instead of in the switches.
//
// S defaults to kDefaultShards = 4; an explicit `shards` overrides it. A
// cell keeps the S it was built with: it routes, stores and folds over its
// own block whatever the S of the backend that later drives it.
//
// Semantics — deliberately RELAXED relative to a single cell:
//
//  * fetch_add/or/and/xor/exchange/fetch_rmw apply to the ROUTED shard and
//    return that shard's prior. Per-shard streams are individually
//    linearizable (the inner substrate guarantees it), and any
//    shard-decomposable invariant — the counter's global sum, the or-word's
//    bit union — holds exactly. What is given up is a TOTAL order across
//    shards: two clients on different shards can both see prior 0. That is
//    the price of the spread; callers who need global tickets keep a
//    single-shard cell (shards = 1 degrades to exactly the inner backend).
//  * load() is an aggregation read: it folds every shard with the
//    backend's Aggregation (associative + commutative, identity-initialized
//    spare shards). Each per-shard read is individually atomic; the fold is
//    not a global snapshot — it is bounded by the values the shards held
//    sometime during the read, the standard sharded-counter contract.
//  * compare_exchange operates on the routed shard (shard-local CAS).
//  * store() quiesces the cell to v: identity into every shard, v into the
//    routed one. Like any racing store, concurrent updates may interleave;
//    use it for initialization/reset, not as a synchronization edge.
//
// Routing is striped: shard = key mod the cell's S, so consecutive client
// keys stripe round-robin across shards (the Ultracomputer's
// interleaving). The routing KEY defaults to thread_ordinal(), but a
// harness multiplexing M logical clients onto N worker threads installs
// the client's identity with ScopedRouteKey — the shard then follows the
// CLIENT, not the worker thread, so thread churn (and thread_ordinal()
// reuse) can never migrate a client's shard mid-sequence.
#pragma once

#include <atomic>
#include <cstdint>
#include <new>
#include <numeric>
#include <utility>
#include <vector>

#include "analysis/instrument.hpp"
#include "core/any_rmw.hpp"
#include "core/types.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/rmw_backend.hpp"
#include "util/assert.hpp"

namespace krs::runtime {

/// The routing key sharded backends resolve for the current thread: the
/// innermost ScopedRouteKey if one is installed, thread_ordinal()
/// otherwise.
inline std::uint64_t route_key() noexcept {
  const detail::ThreadRecord& r = detail::thread_record;
  return r.routed ? r.route_key : thread_ordinal();
}

/// RAII override of the current thread's routing key, kept in its record
/// (thread_ordinal.hpp). A worker thread multiplexing logical clients
/// installs the client's id around each of the client's operations;
/// nesting restores the outer key on exit.
class ScopedRouteKey {
 public:
  explicit ScopedRouteKey(std::uint64_t key) noexcept
      : saved_key_(std::exchange(detail::thread_record.route_key, key)),
        saved_routed_(std::exchange(detail::thread_record.routed, true)) {}
  ScopedRouteKey(const ScopedRouteKey&) = delete;
  ScopedRouteKey& operator=(const ScopedRouteKey&) = delete;
  ~ScopedRouteKey() {
    detail::thread_record.route_key = saved_key_;
    detail::thread_record.routed = saved_routed_;
  }

 private:
  std::uint64_t saved_key_;
  bool saved_routed_;
};

/// The semigroup the aggregation read folds shard values with. Must be
/// associative and commutative with `identity` as neutral element — the
/// spare shards are initialized to it, so fold(identity, x) == x keeps a
/// fresh cell's aggregate equal to its initial value.
struct Aggregation {
  using Fold = Word (*)(Word, Word);
  Word identity = 0;
  Fold fold = nullptr;

  /// Counters / semaphores / tickets: aggregate = Σ shard values.
  static constexpr Aggregation sum() {
    return {0, [](Word a, Word b) { return a + b; }};
  }
  /// Flag/or words: aggregate = ∪ shard bits.
  static constexpr Aggregation bit_or() {
    return {0, [](Word a, Word b) { return a | b; }};
  }
  /// Watermarks: aggregate = max shard value.
  static constexpr Aggregation max() {
    return {0, [](Word a, Word b) { return a > b ? a : b; }};
  }
};

/// Per-cell shard telemetry: operation count routed to each shard.
/// Relaxed counters — quiesce for exact accounting.
struct ShardedCellStats {
  std::vector<std::uint64_t> shard_ops;

  [[nodiscard]] std::uint64_t total() const {
    return std::accumulate(shard_ops.begin(), shard_ops.end(),
                           std::uint64_t{0});
  }
  /// Largest single shard's share of the routed traffic (1.0 = all ops on
  /// one shard — the unsharded hot spot reborn; ~1/S = perfect spread).
  [[nodiscard]] double max_share() const {
    const std::uint64_t t = total();
    if (t == 0) return 0.0;
    std::uint64_t m = 0;
    for (const std::uint64_t v : shard_ops) m = v > m ? v : m;
    return static_cast<double>(m) / static_cast<double>(t);
  }
};

template <RmwBackend Inner>
class ShardedBackend : public MappingOps<ShardedBackend<Inner>> {
 public:
  /// The default S: as many shards as routing keys are hot at once in
  /// krs-bench's `clients_sharded` (4 workers), where 4 beat 8 on p99 and
  /// matched it on ops/s (PERFORMANCE §7). A larger S only widens the
  /// load() fold, one line per shard. A smaller S makes the fold cheaper,
  /// but two hot keys meet on one shard line more often (about 1 pair in
  /// S), so updates pay more collisions.
  static constexpr unsigned kDefaultShards = 4;

  /// `inner`: the per-shard substrate (copied; SimBackend copies share one
  /// machine by design). `shards` ≥ 1; 1 degrades to exactly the inner
  /// backend plus one indirection.
  explicit ShardedBackend(Inner inner, unsigned shards = kDefaultShards)
      : inner_(std::move(inner)), shards_(shards < 1 ? 1 : shards) {}

  struct Cell {
    /// One shard: its inner cell and the count of ops routed to it, on
    /// the shard's own line — a shared counter block would put back the
    /// hot line the striping removes.
    struct alignas(kCacheLine) Slot {
      Slot(const Inner& b, Word v) : cell(b, v) {}
      [[no_unique_address]] typename Inner::Cell cell;
      std::atomic<std::uint64_t> ops{0};  ///< per-shard telemetry
    };

    Cell(const ShardedBackend& b, Word initial)
        : slots(static_cast<Slot*>(::operator new(
              b.shards_ * sizeof(Slot), std::align_val_t{alignof(Slot)}))),
          count(b.shards_),
          home(b.shard_of()) {
      // Build the S inner cells in place, in shard order, in the one
      // line-aligned block (inner cells are pinned: the block never
      // moves). The initial value lands in the HOME shard (the shard the
      // constructing context routes to, so a single-threaded script sees
      // unsharded semantics), identity elsewhere, keeping the aggregate
      // equal to `initial`. A throwing inner constructor unwinds the
      // shards already built and frees the block.
      unsigned built = 0;
      try {
        for (; built < count; ++built) {
          ::new (slots + built)
              Slot(b.inner_, built == home ? initial : b.agg_.identity);
        }
      } catch (...) {
        release(built);
        throw;
      }
    }
    Cell(const Cell&) = delete;
    Cell& operator=(const Cell&) = delete;
    ~Cell() { release(count); }

    Slot* const slots;     ///< S cache-line-isolated shards, one block
    const unsigned count;  ///< S
    unsigned home;         ///< shard holding the initial value

   private:
    /// Destroy the first `built` shards in reverse order, free the block.
    void release(unsigned built) noexcept {
      while (built > 0) slots[--built].~Slot();
      ::operator delete(slots, std::align_val_t{alignof(Slot)});
    }
  };

  Word fetch_rmw(Cell& c, const core::AnyRmw& m) const {
    return inner_.fetch_rmw(routed(c), m);
  }

  /// Shard-local CAS: conditional on the ROUTED shard's value, linearized
  /// against that shard's stream only.
  bool compare_exchange(Cell& c, Word& expected, Word desired) const {
    return inner_.compare_exchange(routed(c), expected, desired);
  }

  /// The aggregation read: fold every shard with the backend's semigroup.
  /// Each per-shard load is atomic in the inner substrate; the fold is the
  /// §3 decombination chain run at read time.
  Word load(const Cell& c) const {
    Word acc = agg_.identity;
    for (unsigned s = 0; s < c.count; ++s) {
      acc = agg_.fold(acc, inner_.load(c.slots[s].cell));
    }
    return acc;
  }

  /// Quiescing reset: identity into every shard, v into the routed one.
  void store(Cell& c, Word v) const {
    const unsigned target = shard_of(c);
    for (unsigned s = 0; s < c.count; ++s) {
      inner_.store(c.slots[s].cell, s == target ? v : agg_.identity);
    }
  }

  [[nodiscard]] unsigned shards() const noexcept { return shards_; }
  [[nodiscard]] const Inner& inner() const noexcept { return inner_; }

  /// The shard of `c` the CURRENT context routes to (ScopedRouteKey if
  /// installed, thread_ordinal() otherwise): the route key mod the cell's
  /// own S, which this backend's need not be. Every update and store()
  /// routes through here.
  [[nodiscard]] unsigned shard_of(const Cell& c) const noexcept {
    return static_cast<unsigned>(route_key() % c.count);
  }

  /// The shard the given routing key resolves to in a cell this backend
  /// builds (S = shards()).
  [[nodiscard]] unsigned shard_of_key(std::uint64_t key) const noexcept {
    return static_cast<unsigned>(key % shards_);
  }

  /// The shard the current context routes to in a cell this backend
  /// builds; shard_of(c) for a cell of any S.
  [[nodiscard]] unsigned shard_of() const noexcept {
    return shard_of_key(route_key());
  }

  void set_aggregation(Aggregation agg) noexcept { agg_ = agg; }

  [[nodiscard]] ShardedCellStats cell_stats(const Cell& c) const {
    ShardedCellStats out;
    out.shard_ops.reserve(c.count);
    for (unsigned s = 0; s < c.count; ++s) {
      out.shard_ops.push_back(c.slots[s].ops.load(std::memory_order_relaxed));
    }
    return out;
  }

  /// Direct shard access for tests and per-shard seeding (e.g. spreading
  /// a semaphore's permits across shards before the clients arrive).
  [[nodiscard]] typename Inner::Cell& shard_cell(Cell& c,
                                                 unsigned s) const {
    KRS_EXPECTS(s < c.count);
    return c.slots[s].cell;
  }

 private:
  typename Inner::Cell& routed(Cell& c) const {
    auto& slot = c.slots[shard_of(c)];
    slot.ops.fetch_add(1, std::memory_order_relaxed);
    return slot.cell;
  }

  Inner inner_;
  unsigned shards_;
  Aggregation agg_ = Aggregation::sum();
};

static_assert(RmwBackend<ShardedBackend<AtomicBackend>>);
// The shard's op counter lives in the atomic cell's tail padding: one line
// per shard, counter included.
static_assert(sizeof(ShardedBackend<AtomicBackend>::Cell::Slot) ==
              kCacheLine);
static_assert(
    RmwBackend<ShardedBackend<BasicAtomicBackend<analysis::NoInstrument>>>);

}  // namespace krs::runtime
