// Dense per-thread ordinals, and the per-slot counter that keys on them.
//
// thread_ordinal() is the runtime layer's thread → slot map: a combiner's
// slot, a reader slot, a simulated processor and a shard key are all
// derived from it. An ordinal has at most one live owner at a time, and it
// passes from an exiting thread to the next one through OrdinalPool's
// mutex, so the old owner's last write happens-before the new owner's
// first read. SlotCounter builds on that: a word only the slot's owner
// writes needs no locked read-modify-write to count exactly.
//
// The combiners read the ordinal on every operation, so its fast path is
// inline: one load of a constant-initialized thread_local cache. Only a
// thread's first call leaves the caller, on the cold take_ordinal(),
// which constructs the OrdinalGuard that holds the tenancy; the guard's
// destructor clears the cache before the ordinal goes back to the pool.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

namespace krs::runtime {

/// No ordinal: what thread_ordinal() returns once the calling thread's
/// tenancy has ended (from a thread_local destructor that runs after the
/// ordinal's guard). It equals no slot index, so a SlotCounter bumped
/// from such a thread takes the shared word.
inline constexpr unsigned kNoOrdinal = ~0u;

namespace detail {

/// Process-wide pool of dense thread ordinals. An exiting thread returns
/// its ordinal (via the thread-local guard below) and the smallest free
/// ordinal is handed out next, so a churny process keeps its live threads
/// dense in 0..peak-1 instead of leaking slots monotonically — otherwise
/// every ordinal-mod-width mapping (combining_backend.hpp slot(), the sim
/// backend's processor map) degenerates to a few aliased slots over time.
/// Mutex-guarded: acquire/release run once per thread lifetime, never on
/// an operation path.
class OrdinalPool {
 public:
  static OrdinalPool& instance() {
    static OrdinalPool pool;
    return pool;
  }

  unsigned acquire() {
    std::lock_guard<std::mutex> lk(mu_);
    if (free_.empty()) return next_++;
    std::pop_heap(free_.begin(), free_.end(), std::greater<>{});
    const unsigned o = free_.back();
    free_.pop_back();
    return o;
  }

  void release(unsigned o) {
    std::lock_guard<std::mutex> lk(mu_);
    free_.push_back(o);
    std::push_heap(free_.begin(), free_.end(), std::greater<>{});
  }

 private:
  std::mutex mu_;
  std::vector<unsigned> free_;  // min-heap: smallest ordinal leaves first
  unsigned next_ = 0;
};

/// The calling thread's ordinal while its tenancy lasts, else kNoOrdinal
/// (before the first thread_ordinal() and after the tenancy ended).
/// Constant-initialized and trivially destructible, so reading it is one
/// thread-local load with no initialization guard or wrapper call.
inline thread_local constinit unsigned cached_ordinal = kNoOrdinal;

/// RAII tenancy of one ordinal for the current thread's lifetime. The pool
/// singleton is constructed before the first guard, so it outlives every
/// guard's destructor (reverse destruction order), on the main thread and
/// worker threads alike. The guard publishes its ordinal to the cache and
/// clears the cache before returning the ordinal to the pool, so no stale
/// ordinal outlives the tenancy.
struct OrdinalGuard {
  const unsigned ordinal = OrdinalPool::instance().acquire();
  OrdinalGuard() noexcept { cached_ordinal = ordinal; }
  OrdinalGuard(const OrdinalGuard&) = delete;
  OrdinalGuard& operator=(const OrdinalGuard&) = delete;
  ~OrdinalGuard() {
    cached_ordinal = kNoOrdinal;
    OrdinalPool::instance().release(ordinal);
  }
};

/// The cold half of thread_ordinal(): takes the tenancy on a thread's
/// first call. A call after the tenancy ended (from a thread_local
/// destructor that runs after the guard's) finds the guard already
/// constructed and returns kNoOrdinal.
[[gnu::cold, gnu::noinline]] inline unsigned take_ordinal() noexcept {
  thread_local const OrdinalGuard guard;
  return cached_ordinal;
}

}  // namespace detail

/// Small dense per-thread ordinal, process-wide. Backends that need a
/// per-thread slot (the combining tree's leaf position, the sim backend's
/// simulated processor) derive it from this; callers never pass slot
/// indices through the backend interface. Ordinals are reclaimed when the
/// owning thread exits, so they stay bounded by the peak number of LIVE
/// threads — sequential spawn/join churn reuses the same few slots rather
/// than counting up forever.
///
/// Inline and one thread-local load once the thread holds its ordinal;
/// only the first call per thread leaves the caller.
inline unsigned thread_ordinal() noexcept {
  const unsigned o = detail::cached_ordinal;
  if (o != kNoOrdinal) [[likely]] return o;
  return detail::take_ordinal();
}

/// `o` mod `n` without a division when o < n, the common case: a thread's
/// ordinal is below the slot count whenever live threads fit the slots.
[[nodiscard]] constexpr unsigned slot_of(unsigned o, unsigned n) noexcept {
  return o < n ? o : o % n;
}

/// An event count kept per slot, bumped without a locked RMW by the slot's
/// owner: the thread whose ordinal equals the slot index is the only
/// writer of `own`, so a relaxed load plus store counts exactly. add_one
/// reads the ordinal cache without taking a tenancy, so it makes no call;
/// a thread that holds no ordinal owns no slot. Every other caller (an
/// ordinal at or above the slot count that aliases onto the slot, or a
/// caller passing an explicit slot) takes a fetch_add on `shared`.
/// Quiesced, total() is exact; mid-run it is a relaxed snapshot.
struct SlotCounter {
  std::atomic<std::uint64_t> own{0};
  std::atomic<std::uint64_t> shared{0};

  void add_one(unsigned slot) noexcept {
    if (detail::cached_ordinal == slot) {
      own.store(own.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
    } else {
      shared.fetch_add(1, std::memory_order_relaxed);
    }
  }

  [[nodiscard]] std::uint64_t total() const noexcept {
    return own.load(std::memory_order_relaxed) +
           shared.load(std::memory_order_relaxed);
  }
};

}  // namespace krs::runtime
