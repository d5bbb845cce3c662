// The shared loop and thread sweep of bench_lock_tier. Each substrate row
// lives in its own translation unit (spin.cpp … combining.cpp), so GCC's
// per-unit inlining budget for one row never depends on another row's
// headers: an edit to the combining tree cannot move the lock rows. Only
// combining.cpp includes combining_backend.hpp.
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "runtime/wait_policy.hpp"

namespace krs::bench {

/// One hot counter through `backend`: a fetch_add per iteration, with the
/// thread's wait telemetry delta reported as counters.
template <typename B>
void lock_tier_loop(benchmark::State& state, B& backend,
                    typename B::Cell& cell) {
  using runtime::thread_wait_stats;
  const runtime::WaitStats before = thread_wait_stats();
  for (auto _ : state) {
    benchmark::DoNotOptimize(backend.fetch_add(cell, 1));
  }
  const runtime::WaitStats delta = thread_wait_stats() - before;
  state.SetItemsProcessed(state.iterations());
  using benchmark::Counter;
  state.counters["wait_spins"] = Counter(static_cast<double>(delta.spins));
  state.counters["wait_yields"] = Counter(static_cast<double>(delta.yields));
  state.counters["wait_parks"] = Counter(static_cast<double>(delta.parks));
  state.counters["wait_wakes"] = Counter(static_cast<double>(delta.wakes));
}

/// threads < cores, = cores, ≫ cores (4×), deduplicated and sorted so a
/// 1-CPU host still sweeps {1, 2, 4} and an 8-CPU host {1, 2, 8, 32}.
inline void lock_tier_threads(benchmark::internal::Benchmark* b) {
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  std::vector<unsigned> counts{1u, 2u, cores, 4u * cores};
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  for (const unsigned t : counts) b->Threads(static_cast<int>(t));
  b->UseRealTime();
}

}  // namespace krs::bench
