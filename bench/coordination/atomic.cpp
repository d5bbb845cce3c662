// bench_coordination's hardware rows: the §6 repertoire on AtomicBackend,
// the hardware fetch-and-θ instruction, paired by name with combining.cpp's
// rows (BM_<X>/atomic against BM_<X>/combining).
#include <cstdint>

#include "coordination_loops.hpp"
#include "runtime/coordination.hpp"
#include "runtime/parallel_queue.hpp"
#include "runtime/rmw_backend.hpp"

using namespace krs::runtime;
using namespace krs::bench;

namespace {

AtomicBackend g_atomic_backend;
AtomicBackend::Cell g_atomic_counter(g_atomic_backend, 0);

void BM_BackendCounter_Atomic(benchmark::State& state) {
  backend_counter_loop(state, g_atomic_backend, g_atomic_counter);
}
BENCHMARK(BM_BackendCounter_Atomic)
    ->Name("BM_BackendCounter/atomic")
    ->Threads(1)->Threads(4)->Threads(8)->UseRealTime();

BasicBarrier<AtomicBackend> g_atomic_backend_barrier(4, g_atomic_backend);

void BM_BackendBarrier_Atomic(benchmark::State& state) {
  for (auto _ : state) {
    g_atomic_backend_barrier.arrive_and_wait();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BackendBarrier_Atomic)
    ->Name("BM_BackendBarrier/atomic")
    ->Threads(4)->UseRealTime();

BasicRwLock<AtomicBackend> g_atomic_rwlock(g_atomic_backend);

void BM_BackendRwLock_Atomic(benchmark::State& state) {
  backend_rwlock_loop(state, g_atomic_rwlock);
}
BENCHMARK(BM_BackendRwLock_Atomic)
    ->Name("BM_BackendRwLock/atomic")
    ->Threads(4)->UseRealTime();

BasicSemaphore<AtomicBackend> g_atomic_sem(2, g_atomic_backend);

void BM_BackendSemaphore_Atomic(benchmark::State& state) {
  backend_semaphore_loop(state, g_atomic_sem);
}
BENCHMARK(BM_BackendSemaphore_Atomic)
    ->Name("BM_BackendSemaphore/atomic")
    ->Threads(4)->UseRealTime();

ParallelQueue<std::uint64_t, krs::analysis::DefaultInstrument, AtomicBackend>
    g_atomic_queue(1024, g_atomic_backend);

void BM_BackendQueue_Atomic(benchmark::State& state) {
  backend_queue_loop(state, g_atomic_queue);
}
BENCHMARK(BM_BackendQueue_Atomic)
    ->Name("BM_BackendQueue/atomic")
    ->Threads(4)->UseRealTime();

}  // namespace
