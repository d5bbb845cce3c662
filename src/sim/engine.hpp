// Deterministic cycle engines shared by the simulated machines.
//
// A machine models its cycle as a fixed sequence of SUB-PHASES over a set
// of SHARDS. Within one sub-phase, distinct shards touch disjoint state:
// every cross-shard channel is a single-slot link with exactly one writer
// sub-phase and one reader sub-phase, so a sub-phase reads only snapshots
// the previous sub-phase published. That makes the shard loop order
// immaterial — the sequential engine and the parallel engine (any worker
// count, any interleaving) produce bit-identical machine states, which is
// what lets the determinism suite diff transcripts across thread counts.
//
// The parallel engine is the dogfooding exercise: the workers synchronize
// with the repo's own combining-tree barrier (§6 software shape), three
// phase waves per simulated cycle.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/types.hpp"
#include "runtime/tree_barrier.hpp"
#include "util/assert.hpp"

namespace krs::sim {

/// What a machine must expose to be driven by the engines. `engine_subphase`
/// must be safe to call concurrently for distinct shards of the SAME
/// sub-phase; `engine_end_cycle` runs serially between cycles (merge
/// per-shard logs in shard order, advance the clock).
template <typename MachineT>
concept CycleSharded = requires(MachineT& m, const MachineT& cm) {
  { cm.engine_shards() } -> std::convertible_to<std::uint32_t>;
  { cm.engine_subphases() } -> std::convertible_to<unsigned>;
  m.engine_subphase(0u, std::uint32_t{0});
  m.engine_end_cycle();
  { cm.drained() } -> std::convertible_to<bool>;
  { cm.now() } -> std::convertible_to<core::Tick>;
};

/// Reference engine: one thread, shards in index order. This is the
/// specification the parallel engine is tested against.
struct SequentialEngine {
  /// One cycle: every sub-phase over every shard, then the serial step.
  template <CycleSharded MachineT>
  static void step(MachineT& m) {
    const std::uint32_t shards = m.engine_shards();
    const unsigned phases = m.engine_subphases();
    for (unsigned ph = 0; ph < phases; ++ph) {
      for (std::uint32_t sh = 0; sh < shards; ++sh) m.engine_subphase(ph, sh);
    }
    m.engine_end_cycle();
  }

  template <CycleSharded MachineT>
  static bool run(MachineT& m, core::Tick max_cycles) {
    while (m.now() < max_cycles) {
      step(m);
      if (m.drained()) return true;
    }
    return m.drained();
  }
};

/// Worker-pool engine: shards are split into contiguous static ranges, one
/// per worker; a tree barrier separates sub-phases and the serial
/// end-of-cycle step. Because sub-phases only communicate through
/// single-writer/single-reader links, the result is bit-identical to
/// SequentialEngine at every worker count.
class ParallelEngine {
 public:
  explicit ParallelEngine(unsigned workers)
      : workers_(std::max(1u, workers)) {}

  template <CycleSharded MachineT>
  bool run(MachineT& m, core::Tick max_cycles) {
    const std::uint32_t shards = m.engine_shards();
    const unsigned workers =
        static_cast<unsigned>(std::min<std::uint64_t>(workers_, shards));
    if (workers <= 1) return SequentialEngine::run(m, max_cycles);
    if (m.now() >= max_cycles) return m.drained();

    const unsigned phases = m.engine_subphases();
    runtime::TreeBarrier barrier(workers);
    // Written by worker 0 only, between two barrier waves; the barrier's
    // release/acquire chain publishes it to every worker.
    bool stop = false;

    auto body = [&](unsigned w) {
      const auto lo =
          static_cast<std::uint32_t>(std::uint64_t{shards} * w / workers);
      const auto hi =
          static_cast<std::uint32_t>(std::uint64_t{shards} * (w + 1) / workers);
      bool sense = false;
      for (;;) {
        for (unsigned ph = 0; ph < phases; ++ph) {
          for (std::uint32_t sh = lo; sh < hi; ++sh) {
            m.engine_subphase(ph, sh);
          }
          barrier.arrive_and_wait(w, sense);
        }
        if (w == 0) {
          m.engine_end_cycle();
          stop = m.drained() || m.now() >= max_cycles;
        }
        barrier.arrive_and_wait(w, sense);
        if (stop) return;
      }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (unsigned w = 1; w < workers; ++w) {
      pool.emplace_back(body, w);
    }
    body(0);
    for (auto& t : pool) t.join();
    return m.drained();
  }

 private:
  unsigned workers_;
};

}  // namespace krs::sim
