// Heap footprints pinned with a counting global allocator. This is its
// own executable so that no other test sees the replaced operator
// new/delete.
//
// A ShardedBackend<AtomicBackend>::Cell of S shards is one allocation of
// S lines (the shards, built in place in one line-aligned block) and a
// Cell object of at most 24 bytes. A node-based container fails it: a
// std::deque of the same shards makes 3 allocations of 1088 bytes in all
// at S = 8.
//
// A CLH lock's queue nodes migrate between threads, and an exiting
// thread's spares pass to the next thread that takes its ordinal, so
// thread churn on one lock allocates a node once, not once per thread.
//
// Every form of the global operator new/delete is replaced (plain,
// array, aligned, sized, nothrow), all on malloc/posix_memalign/free, so
// an allocation never meets a sanitizer runtime's operator delete.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <thread>

#include "runtime/cacheline.hpp"
#include "runtime/local_spin_locks.hpp"
#include "runtime/rmw_backend.hpp"
#include "runtime/sharded_backend.hpp"

namespace {

/// Allocations made while `counting` is set: how many, and their bytes.
std::atomic<bool> counting{false};
std::atomic<std::size_t> allocations{0};
std::atomic<std::size_t> allocated_bytes{0};

void* allocate(std::size_t n, std::size_t align) noexcept {
  if (counting.load(std::memory_order_relaxed)) {
    allocations.fetch_add(1, std::memory_order_relaxed);
    allocated_bytes.fetch_add(n, std::memory_order_relaxed);
  }
  if (n == 0) n = 1;
  if (align <= alignof(std::max_align_t)) return std::malloc(n);
  void* p = nullptr;
  return posix_memalign(&p, std::max(align, sizeof(void*)), n) == 0 ? p
                                                                     : nullptr;
}

void* allocate_or_throw(std::size_t n, std::size_t align) {
  void* p = allocate(n, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

std::size_t align_of(std::align_val_t a) noexcept {
  return static_cast<std::size_t>(a);
}

}  // namespace

// clang-format off
void* operator new(std::size_t n) { return allocate_or_throw(n, 0); }
void* operator new[](std::size_t n) { return allocate_or_throw(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) { return allocate_or_throw(n, align_of(a)); }
void* operator new[](std::size_t n, std::align_val_t a) { return allocate_or_throw(n, align_of(a)); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return allocate(n, 0); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return allocate(n, 0); }
void* operator new(std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept { return allocate(n, align_of(a)); }
void* operator new[](std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept { return allocate(n, align_of(a)); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
// clang-format on

namespace {

using namespace krs::runtime;
using Sharded = ShardedBackend<AtomicBackend>;

TEST(Footprint, ShardedCellIsOneLineAlignedAllocation) {
  // 0 stands for the default S, kDefaultShards.
  for (const unsigned arg : {1u, 3u, 8u, 0u}) {
    const Sharded b = arg == 0 ? Sharded{AtomicBackend{}}
                               : Sharded{AtomicBackend{}, arg};
    const unsigned shards = arg == 0 ? Sharded::kDefaultShards : arg;
    // Take the thread's ordinal (and any first-use state) outside the
    // counted window.
    { const Sharded::Cell warm(b, 0); }

    allocations = 0;
    allocated_bytes = 0;
    counting = true;
    {
      const Sharded::Cell cell(b, 0);
      counting = false;
    }
    EXPECT_EQ(allocations.load(), 1u) << "S = " << shards;
    EXPECT_EQ(allocated_bytes.load(), std::size_t{shards} * kCacheLine)
        << "S = " << shards;
  }
}

TEST(Footprint, ShardedCellObjectIsSmall) {
  EXPECT_LE(sizeof(Sharded::Cell), 24u);
}

/// operator new calls made while `threads` threads run `body` one after
/// another, each joined before the next starts.
template <typename F>
std::size_t sequential_thread_allocations(unsigned threads, F body) {
  allocations = 0;
  counting = true;
  for (unsigned t = 0; t < threads; ++t) std::thread(body).join();
  counting = false;
  return allocations.load();
}

TEST(Footprint, ClhLockThreadChurnDoesNotGrow) {
  constexpr unsigned kThreads = 1000;
  const std::size_t baseline = sequential_thread_allocations(kThreads, [] {});
  ClhLock lock;
  const std::size_t churn = sequential_thread_allocations(
      kThreads, [&] { const ClhLock::Scoped g(lock); });
  // The first thread allocates one node and the pool's slot table; a
  // per-lock cache per thread would allocate at least once per thread.
  EXPECT_LE(churn, baseline + 4) << "baseline " << baseline;
}

}  // namespace
