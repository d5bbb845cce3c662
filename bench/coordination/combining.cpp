// bench_coordination's combining rows: the same hotspot fetch-and-add,
// barrier, rw-lock, semaphore and queue as atomic.cpp, with the hot cell
// funneled through the software combining tree (CombiningBackend). The
// normalized output pairs BM_<X>/atomic against BM_<X>/combining per
// thread count into the `combining_vs_atomic_ops_ratio` series — the §4.2
// crossover curve on this host. (On a single-core runner combining mostly
// measures its constant factor; the series exists so multi-core runs track
// the crossover.)
#include <cstdint>

#include "coordination_loops.hpp"
#include "runtime/combining_backend.hpp"
#include "runtime/coordination.hpp"
#include "runtime/parallel_queue.hpp"

using namespace krs::runtime;
using namespace krs::bench;

namespace {

CombiningBackend g_combining_backend(8);
CombiningBackend::Cell g_combining_counter(g_combining_backend, 0);

void BM_BackendCounter_Combining(benchmark::State& state) {
  backend_counter_loop(state, g_combining_backend, g_combining_counter);
  if (state.thread_index() == 0) {
    // Partial-combining telemetry (§7) for the hot cell, cumulative over
    // the run: how much traffic folded below the root, how much reached
    // it, and how much landed with the direct CAS without entering the
    // tree. served_at_root near 1.0 is normal when the direct CAS lands,
    // so a mixed-family regression shows in the tree's declined_folds,
    // not there.
    const CombiningTreeStats ts =
        g_combining_backend.cell_stats(g_combining_counter);
    state.counters["combine_rate"] = ts.combine_rate();
    state.counters["served_at_root_fraction"] = ts.served_at_root_fraction();
    state.counters["direct_rate"] = ts.direct_rate();
  }
}
BENCHMARK(BM_BackendCounter_Combining)
    ->Name("BM_BackendCounter/combining")
    ->Threads(1)->Threads(4)->Threads(8)->UseRealTime();

BasicBarrier<CombiningBackend> g_combining_backend_barrier(
    4, g_combining_backend);

void BM_BackendBarrier_Combining(benchmark::State& state) {
  for (auto _ : state) {
    g_combining_backend_barrier.arrive_and_wait();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BackendBarrier_Combining)
    ->Name("BM_BackendBarrier/combining")
    ->Threads(4)->UseRealTime();

BasicRwLock<CombiningBackend> g_combining_rwlock(g_combining_backend);

void BM_BackendRwLock_Combining(benchmark::State& state) {
  backend_rwlock_loop(state, g_combining_rwlock);
}
BENCHMARK(BM_BackendRwLock_Combining)
    ->Name("BM_BackendRwLock/combining")
    ->Threads(4)->UseRealTime();

BasicSemaphore<CombiningBackend> g_combining_sem(2, g_combining_backend);

void BM_BackendSemaphore_Combining(benchmark::State& state) {
  backend_semaphore_loop(state, g_combining_sem);
}
BENCHMARK(BM_BackendSemaphore_Combining)
    ->Name("BM_BackendSemaphore/combining")
    ->Threads(4)->UseRealTime();

ParallelQueue<std::uint64_t, krs::analysis::DefaultInstrument,
              CombiningBackend>
    g_combining_queue(1024, g_combining_backend);

void BM_BackendQueue_Combining(benchmark::State& state) {
  backend_queue_loop(state, g_combining_queue);
}
BENCHMARK(BM_BackendQueue_Combining)
    ->Name("BM_BackendQueue/combining")
    ->Threads(4)->UseRealTime();

}  // namespace
