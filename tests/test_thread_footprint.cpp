// A worker thread's first runtime calls allocate nothing, pinned with a
// per-thread count of every C allocation. This is its own executable so
// that no other test sees the replaced malloc family, and it is kept
// apart from test_footprint's operator new counter: the allocations it
// pins are the C library's own, made below operator new.
//
// A C++ thread_local with a non-trivial destructor registers that
// destructor on the thread's first use of it, and glibc's
// __cxa_thread_atexit callocs one list entry per destructor. A thread's
// first malloc also gives it its own arena (4 KiB resident, 64 MiB of
// address space). The runtime keeps a thread's state in one trivially
// destructible record torn down by a thread-specific-data key instead
// (runtime/thread_ordinal.hpp), so a fresh thread's first operations on
// every structure below, one wait episode and thread_wait_stats() make
// no allocation at all, and neither does its exit hook.
//
// malloc, calloc, realloc, aligned_alloc, posix_memalign, memalign and
// free are replaced by forwarders to glibc's __libc_* entry points; glibc
// routes its own internal allocations through the replaced symbols. So
// the test needs glibc, and it is not built under a sanitizer, whose
// runtime owns malloc.
#include <gtest/gtest.h>

#include <pthread.h>

#include <atomic>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <thread>
#include <vector>

#include "runtime/combining_backend.hpp"
#include "runtime/coordination.hpp"
#include "runtime/parallel_queue.hpp"
#include "runtime/rmw_backend.hpp"
#include "runtime/sharded_backend.hpp"
#include "runtime/thread_ordinal.hpp"
#include "runtime/wait_policy.hpp"

extern "C" {
void* __libc_malloc(std::size_t n);
void* __libc_calloc(std::size_t n, std::size_t size);
void* __libc_realloc(void* p, std::size_t n);
void* __libc_memalign(std::size_t align, std::size_t n);
void __libc_free(void* p);
}

namespace {

/// Allocations the calling thread has made. Constant-initialized and
/// trivially destructible, so counting registers nothing itself.
thread_local constinit std::size_t thread_allocations = 0;

}  // namespace

extern "C" {

void* malloc(std::size_t n) noexcept {
  ++thread_allocations;
  return __libc_malloc(n);
}

void* calloc(std::size_t n, std::size_t size) noexcept {
  ++thread_allocations;
  return __libc_calloc(n, size);
}

void* realloc(void* p, std::size_t n) noexcept {
  ++thread_allocations;
  return __libc_realloc(p, n);
}

void* memalign(std::size_t align, std::size_t n) noexcept {
  ++thread_allocations;
  return __libc_memalign(align, n);
}

void* aligned_alloc(std::size_t align, std::size_t n) noexcept {
  ++thread_allocations;
  return __libc_memalign(align, n);
}

int posix_memalign(void** out, std::size_t align, std::size_t n) noexcept {
  if (align % sizeof(void*) != 0 || (align & (align - 1)) != 0) {
    return EINVAL;
  }
  ++thread_allocations;
  void* p = __libc_memalign(align, n);
  if (p == nullptr) return ENOMEM;
  *out = p;
  return 0;
}

void free(void* p) noexcept { __libc_free(p); }

}  // extern "C"

namespace {

using namespace krs::runtime;

/// Runs `first_ops` as a fresh thread's first runtime calls, then one
/// wait episode (three blind rounds, flushed by reset()) and a
/// thread_wait_stats() read. Returns the allocations the thread made
/// meanwhile; `spins` receives the episode's count.
template <typename F>
std::size_t first_use_allocations(F&& first_ops,
                                  std::uint64_t* spins = nullptr) {
  std::size_t n = 0;
  std::uint64_t s = 0;
  std::thread([&] {
    const std::size_t before = thread_allocations;
    first_ops();
    SpinYieldWait pol;
    for (int i = 0; i < 3; ++i) pol.pause();
    pol.reset();
    s = thread_wait_stats().spins;
    n = thread_allocations - before;
  }).join();
  if (spins != nullptr) *spins = s;
  return n;
}

TEST(ThreadFootprint, TheCounterSeesAThreadsAllocations) {
  // The zero counts below mean something only if the forwarders count.
  std::size_t n = 0;
  std::thread([&] {
    const std::size_t before = thread_allocations;
    void* volatile p = std::malloc(16);
    std::free(p);
    n = thread_allocations - before;
  }).join();
  EXPECT_EQ(n, 1u);
}

TEST(ThreadFootprint, AWaitEpisodeAllocatesNothing) {
  std::uint64_t spins = 0;
  EXPECT_EQ(first_use_allocations([] {}, &spins), 0u);
  EXPECT_EQ(spins, 1u + 2u + 4u);
}

TEST(ThreadFootprint, ThreadOrdinalAllocatesNothing) {
  unsigned o = kNoOrdinal;
  EXPECT_EQ(first_use_allocations([&] { o = thread_ordinal(); }), 0u);
  EXPECT_NE(o, kNoOrdinal);
}

TEST(ThreadFootprint, AtomicBackendAllocatesNothing) {
  AtomicBackend b;
  AtomicBackend::Cell cell(b, 0);
  EXPECT_EQ(first_use_allocations([&] {
              b.fetch_add(cell, 2);
              (void)b.load(cell);
            }),
            0u);
  EXPECT_EQ(b.load(cell), 2u);
}

TEST(ThreadFootprint, CombiningBackendAllocatesNothing) {
  CombiningBackend b{4};
  CombiningBackend::Cell cell(b, 0);
  EXPECT_EQ(first_use_allocations([&] {
              b.fetch_add(cell, 2);
              (void)b.load(cell);
            }),
            0u);
  EXPECT_EQ(b.load(cell), 2u);
}

TEST(ThreadFootprint, FlatCombiningBackendAllocatesNothing) {
  FlatCombiningBackend b{4};
  FlatCombiningBackend::Cell cell(b, 0);
  EXPECT_EQ(first_use_allocations([&] {
              b.fetch_add(cell, 2);
              (void)b.load(cell);
            }),
            0u);
  EXPECT_EQ(b.load(cell), 2u);
}

TEST(ThreadFootprint, ShardedBackendAllocatesNothing) {
  ShardedBackend<AtomicBackend> b{AtomicBackend{}, 4};
  ShardedBackend<AtomicBackend>::Cell cell(b, 0);
  EXPECT_EQ(first_use_allocations([&] {
              b.fetch_add(cell, 2);
              (void)b.load(cell);
            }),
            0u);
  EXPECT_EQ(b.load(cell), 2u);
}

TEST(ThreadFootprint, FaaRwLockAllocatesNothing) {
  FaaRwLock lock;
  EXPECT_EQ(first_use_allocations([&] {
              lock.read_lock();
              lock.read_unlock();
              lock.write_lock();
              lock.write_unlock();
            }),
            0u);
}

TEST(ThreadFootprint, FaaSemaphoreAllocatesNothing) {
  FaaSemaphore sem(0);
  EXPECT_EQ(first_use_allocations([&] {
              sem.v();
              sem.p();
            }),
            0u);
}

TEST(ThreadFootprint, ParallelQueueAllocatesNothing) {
  ParallelQueue<int> q(4);
  int got = 0;
  EXPECT_EQ(first_use_allocations([&] {
              q.enqueue(7);
              got = q.dequeue();
            }),
            0u);
  EXPECT_EQ(got, 7);
}

// The exit hook returns a worker's ordinal to the pool and drains its
// wait counters; neither may allocate, or a worker that never allocated
// makes its first malloc (and gets its own arena) as it exits. A probe key
// whose destructor re-arms itself once reads the counter on the second
// destructor pass, after the hook has run; its baseline is taken at the
// end of the thread's body, so the count is the hook's alone (std::thread
// only frees its state in between). Eight workers live at once release
// eight ordinals together, the case where a growable free list grows.
namespace exit_probe {

pthread_key_t key;
thread_local constinit std::size_t at_body_end = 0;
thread_local constinit bool rearmed = false;
std::atomic<std::size_t> hook_allocations{0};
std::atomic<unsigned> probes{0};

void on_exit(void* p) {
  if (!rearmed) {
    rearmed = true;
    pthread_setspecific(key, p);  // read on the next pass, after the hook
    return;
  }
  hook_allocations += thread_allocations - at_body_end;
  ++probes;
}

}  // namespace exit_probe

TEST(ThreadFootprint, ExitHooksAllocateNothing) {
  ASSERT_EQ(pthread_key_create(&exit_probe::key, exit_probe::on_exit), 0);
  constexpr unsigned kWorkers = 8;
  std::atomic<unsigned> arrived{0};
  std::vector<std::thread> ts;
  ts.reserve(kWorkers);
  for (unsigned t = 0; t < kWorkers; ++t) {
    ts.emplace_back([&] {
      (void)thread_ordinal();  // takes an ordinal and arms the hook
      SpinYieldWait pol;
      pol.pause();
      pol.reset();  // a wait count for the hook to drain
      pthread_setspecific(exit_probe::key, &arrived);
      ++arrived;
      while (arrived.load() < kWorkers) std::this_thread::yield();
      exit_probe::at_body_end = thread_allocations;
    });
  }
  for (std::thread& t : ts) t.join();
  pthread_key_delete(exit_probe::key);
  EXPECT_EQ(exit_probe::probes.load(), kWorkers);
  EXPECT_EQ(exit_probe::hook_allocations.load(), 0u);
}

}  // namespace
