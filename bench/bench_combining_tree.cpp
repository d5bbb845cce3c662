// E13 — the software combining tree on real threads: shared-counter
// throughput of (a) bare hardware fetch_add, (b) a mutex-protected
// counter, and (c) a CombiningBackend cell (the lock-free status-word
// combining tree behind the RmwBackend seam), across thread counts.
//
// Expected shape (and the honest caveat the Ultracomputer literature
// itself reports): on a machine with a handful of cores, the hardware
// fetch_add wins outright — combining pays off when the interconnect, not
// the cache line, is the bottleneck (thousands of processors, §1). The
// tree's value here is the crossover against the MUTEX baseline under
// contention (docs/PERFORMANCE.md; tools/run_bench.sh records the measured
// trajectory in BENCH_combining.json).
#include <benchmark/benchmark.h>

#include <atomic>
#include <mutex>

#include "runtime/combining_backend.hpp"

using namespace krs::runtime;

namespace {

constexpr unsigned kTreeWidth = 16;  // supports up to 16 benchmark threads

std::atomic<Word> g_atomic{0};

void BM_HardwareFetchAdd(benchmark::State& state) {
  if (state.thread_index() == 0) g_atomic = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(g_atomic.fetch_add(1, std::memory_order_acq_rel));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HardwareFetchAdd)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)->Threads(16)
    ->UseRealTime();

std::mutex g_mutex;
Word g_counter = 0;

void BM_MutexCounter(benchmark::State& state) {
  if (state.thread_index() == 0) g_counter = 0;
  for (auto _ : state) {
    std::scoped_lock lk(g_mutex);
    benchmark::DoNotOptimize(++g_counter);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MutexCounter)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)->Threads(16)
    ->UseRealTime();

// One fixed-width cell shared by all thread configurations (allocating
// inside the benchmark would race with the other worker threads).
const CombiningBackend g_backend(kTreeWidth);
CombiningBackend::Cell g_cell(g_backend, 0);

void BM_CombiningBackendCell(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(g_backend.fetch_add(g_cell, 1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CombiningBackendCell)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)->Threads(16)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
