// bench_coordination's baseline rows: the fetch-and-add primitives
// (FaaBarrier, FaaRwLock, FaaSemaphore, TicketLock, ParallelQueue) against
// std::barrier, std::shared_mutex, std::mutex and a mutex/condition-
// variable queue.
#include <benchmark/benchmark.h>

#include <barrier>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <shared_mutex>

#include "runtime/coordination.hpp"
#include "runtime/parallel_queue.hpp"
#include "runtime/ticket_lock.hpp"

using namespace krs::runtime;

namespace {

// --- barriers ---------------------------------------------------------------

FaaBarrier g_faa_barrier(4);

void BM_FaaBarrier(benchmark::State& state) {
  for (auto _ : state) {
    g_faa_barrier.arrive_and_wait();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FaaBarrier)->Threads(4)->UseRealTime();

std::barrier<> g_std_barrier(4);

void BM_StdBarrier(benchmark::State& state) {
  for (auto _ : state) {
    g_std_barrier.arrive_and_wait();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StdBarrier)->Threads(4)->UseRealTime();

// --- readers-writers ----------------------------------------------------------

FaaRwLock g_faa_rw;
long g_rw_value = 0;

void BM_FaaRwLockReadMostly(benchmark::State& state) {
  for (auto _ : state) {
    if (state.thread_index() == 0) {
      g_faa_rw.write_lock();
      ++g_rw_value;
      g_faa_rw.write_unlock();
    } else {
      g_faa_rw.read_lock();
      benchmark::DoNotOptimize(g_rw_value);
      g_faa_rw.read_unlock();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FaaRwLockReadMostly)->Threads(4)->UseRealTime();

std::shared_mutex g_shared_mutex;

void BM_SharedMutexReadMostly(benchmark::State& state) {
  for (auto _ : state) {
    if (state.thread_index() == 0) {
      std::unique_lock lk(g_shared_mutex);
      ++g_rw_value;
    } else {
      std::shared_lock lk(g_shared_mutex);
      benchmark::DoNotOptimize(g_rw_value);
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SharedMutexReadMostly)->Threads(4)->UseRealTime();

// --- semaphore ----------------------------------------------------------------

FaaSemaphore g_sem(2);

void BM_FaaSemaphore(benchmark::State& state) {
  for (auto _ : state) {
    g_sem.p();
    benchmark::ClobberMemory();
    g_sem.v();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FaaSemaphore)->Threads(4)->UseRealTime();

// --- locks ---------------------------------------------------------------------

TicketLock g_ticket;
long g_locked_counter = 0;

void BM_TicketLock(benchmark::State& state) {
  for (auto _ : state) {
    g_ticket.lock();
    benchmark::DoNotOptimize(++g_locked_counter);
    g_ticket.unlock();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TicketLock)
    ->Threads(1)->Threads(4)->Threads(8)->UseRealTime();

std::mutex g_plain_mutex;

void BM_StdMutexLock(benchmark::State& state) {
  for (auto _ : state) {
    std::scoped_lock lk(g_plain_mutex);
    benchmark::DoNotOptimize(++g_locked_counter);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StdMutexLock)
    ->Threads(1)->Threads(4)->Threads(8)->UseRealTime();

// --- queues --------------------------------------------------------------------

ParallelQueue<std::uint64_t> g_pqueue(1024);

void BM_ParallelQueue(benchmark::State& state) {
  // Even threads produce, odd threads consume.
  const bool producer = state.thread_index() % 2 == 0;
  std::uint64_t v = 0;
  for (auto _ : state) {
    if (producer) {
      g_pqueue.enqueue(++v);
    } else {
      benchmark::DoNotOptimize(g_pqueue.dequeue());
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ParallelQueue)->Threads(2)->Threads(4)->UseRealTime();

class MutexQueue {
 public:
  void enqueue(std::uint64_t v) {
    std::unique_lock lk(m_);
    not_full_.wait(lk, [&] { return q_.size() < 1024; });
    q_.push_back(v);
    not_empty_.notify_one();
  }
  std::uint64_t dequeue() {
    std::unique_lock lk(m_);
    not_empty_.wait(lk, [&] { return !q_.empty(); });
    const auto v = q_.front();
    q_.pop_front();
    not_full_.notify_one();
    return v;
  }

 private:
  std::mutex m_;
  std::condition_variable not_full_, not_empty_;
  std::deque<std::uint64_t> q_;
};

MutexQueue g_mqueue;

void BM_MutexQueue(benchmark::State& state) {
  const bool producer = state.thread_index() % 2 == 0;
  std::uint64_t v = 0;
  for (auto _ : state) {
    if (producer) {
      g_mqueue.enqueue(++v);
    } else {
      benchmark::DoNotOptimize(g_mqueue.dequeue());
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MutexQueue)->Threads(2)->Threads(4)->UseRealTime();

}  // namespace
