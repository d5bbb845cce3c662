// The shared loops of bench_coordination's backend rows. Each substrate
// lives in its own translation unit (atomic.cpp, combining.cpp, sim.cpp,
// baselines.cpp), so GCC's per-unit inlining budget for one substrate's
// rows never depends on another substrate's headers: an edit to a
// software combiner cannot move the atomic, sim or baseline rows. Only
// combining.cpp includes combining_backend.hpp.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdint>

#include "runtime/coordination.hpp"

namespace krs::bench {

/// One hot counter: a fetch_add per iteration.
template <typename B>
void backend_counter_loop(benchmark::State& state, B& backend,
                          typename B::Cell& cell) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(backend.fetch_add(cell, 1));
  }
  state.SetItemsProcessed(state.iterations());
}

/// The read-mostly rw-lock row's protected value.
inline long g_backend_rw_value = 0;

/// Thread 0 writes, the others read.
template <typename B>
void backend_rwlock_loop(benchmark::State& state,
                         runtime::BasicRwLock<B>& lock) {
  for (auto _ : state) {
    if (state.thread_index() == 0) {
      lock.write_lock();
      ++g_backend_rw_value;
      lock.write_unlock();
    } else {
      lock.read_lock();
      benchmark::DoNotOptimize(g_backend_rw_value);
      lock.read_unlock();
    }
  }
  state.SetItemsProcessed(state.iterations());
}

/// P then V on a two-permit semaphore.
template <typename B>
void backend_semaphore_loop(benchmark::State& state,
                            runtime::BasicSemaphore<B>& sem) {
  for (auto _ : state) {
    sem.p();
    benchmark::ClobberMemory();
    sem.v();
  }
  state.SetItemsProcessed(state.iterations());
}

template <typename Q>
void backend_queue_loop(benchmark::State& state, Q& q) {
  // Even threads produce, odd threads consume (as BM_ParallelQueue).
  const bool producer = state.thread_index() % 2 == 0;
  std::uint64_t v = 0;
  for (auto _ : state) {
    if (producer) {
      q.enqueue(++v);
    } else {
      benchmark::DoNotOptimize(q.dequeue());
    }
  }
  state.SetItemsProcessed(state.iterations());
}

}  // namespace krs::bench
