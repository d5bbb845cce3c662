// Dense per-thread ordinals, the per-thread record that holds them, and
// the per-slot counter that keys on them.
//
// thread_ordinal() is the runtime layer's thread → slot map: a combiner's
// slot, a reader slot, a simulated processor and a shard key are all
// derived from it. An ordinal has at most one live owner at a time, and it
// passes from an exiting thread to the next one through OrdinalPool's free
// bitmap: the old owner sets its bit with a release fetch_or, and the new
// owner clears it with an acquire CAS that reads that fetch_or (or a later
// RMW of the word), so the old owner's last write happens-before the new
// owner's first read. SlotCounter builds on that: a word only the slot's owner
// writes needs no locked read-modify-write to count exactly.
//
// A thread's runtime state is one constant-initialized, trivially
// destructible thread_local record: its ordinal, its wait counters
// (wait_policy.hpp) and two flags. It registers no C++ thread_local
// destructor, so a thread's first runtime call allocates nothing (glibc's
// __cxa_thread_atexit callocs one entry per destructor, and a thread's
// first malloc gives it its own arena: 4 KiB resident and 64 MiB of
// address space). The record is torn down by one POSIX thread-specific
// key instead, the exit hook, armed on the thread's first thread_ordinal()
// or first wait flush. glibc keeps a key below index 32 inside the thread
// descriptor, so arming it allocates nothing either.
//
// The tenancy ends in the exit hook, which glibc runs after every C++
// thread_local destructor: such a destructor still reads the live ordinal
// and counts as its slot's owner, and code that runs after the hook (a
// later key destructor) reads kNoOrdinal.
//
// The combiners read the ordinal on every operation, so its fast path is
// inline: one load of the record's ordinal. Only a thread's first call
// leaves the caller, on the cold take_ordinal().
#pragma once

#include <pthread.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <type_traits>
#include <utility>

namespace krs::runtime {

/// No ordinal: what thread_ordinal() returns once the calling thread's
/// tenancy has ended (from code that runs after the exit hook). It equals
/// no slot index, so a SlotCounter bumped from such a thread takes the
/// shared word.
inline constexpr unsigned kNoOrdinal = ~0u;

/// Cumulative wait-side work: spin rounds (in pause instructions), yields,
/// parks (kernel sleeps, timed or woken), and wakes issued by notifiers.
struct WaitStats {
  std::uint64_t spins = 0;
  std::uint64_t yields = 0;
  std::uint64_t parks = 0;
  std::uint64_t wakes = 0;

  WaitStats& operator+=(const WaitStats& o) noexcept {
    spins += o.spins;
    yields += o.yields;
    parks += o.parks;
    wakes += o.wakes;
    return *this;
  }
  friend WaitStats operator-(WaitStats a, const WaitStats& b) noexcept {
    a.spins -= b.spins;
    a.yields -= b.yields;
    a.parks -= b.parks;
    a.wakes -= b.wakes;
    return a;
  }
};

namespace detail {

/// Process-wide pool of dense thread ordinals. An exiting thread returns
/// its ordinal (in the exit hook below) and the smallest free ordinal is
/// handed out next, so a churny process keeps its live threads dense in
/// 0..peak-1 instead of leaking slots monotonically — otherwise every
/// ordinal-mod-width mapping (the combiners' slot_of, the sim backend's
/// processor map) degenerates to a few aliased slots over time.
/// Lock-free, so a thread preempted in acquire or release delays no other
/// thread's start or exit; both run once per thread lifetime, never on an
/// operation path.
///
/// The free set is a fixed bitmap of the first kCapacity ordinals in
/// atomic words, so release never allocates (it runs in an exiting
/// thread's exit hook).
/// Past the capacity, ordinals are handed out fresh from the counter and
/// never reused: release drops an ordinal at or above kCapacity. A process
/// that keeps more than kCapacity threads alive at once therefore counts
/// past them, which widens only the aliasing of slot_of mappings.
class OrdinalPool {
 public:
  static constexpr unsigned kCapacity = 1024;

  static OrdinalPool& instance() {
    static OrdinalPool pool;
    return pool;
  }

  /// Clears the lowest set bit of the first non-zero word (a lost CAS
  /// retries on the word's new value), else takes a fresh ordinal.
  unsigned acquire() noexcept {
    for (unsigned i = 0; i < kWords; ++i) {
      std::uint64_t w = free_[i].load(std::memory_order_relaxed);
      while (w != 0) {
        if (free_[i].compare_exchange_weak(w, w & (w - 1),
                                           std::memory_order_acquire,
                                           std::memory_order_relaxed)) {
          return i * 64 + static_cast<unsigned>(std::countr_zero(w));
        }
      }
    }
    return next_.fetch_add(1, std::memory_order_relaxed);
  }

  void release(unsigned o) noexcept {
    if (o < kCapacity) {
      free_[o / 64].fetch_or(std::uint64_t{1} << (o % 64),
                             std::memory_order_release);
    }
  }

 private:
  static constexpr unsigned kWords = kCapacity / 64;

  std::atomic<std::uint64_t> free_[kWords] = {};  // bit o: ordinal o is free
  std::atomic<unsigned> next_{0};
};

/// Wait work of exited threads, added once per thread exit and read only
/// by wait_stats_snapshot().
struct GlobalWaitStats {
  std::mutex mu;
  WaitStats exited;  // guarded by mu

  static GlobalWaitStats& instance() {
    static GlobalWaitStats g;
    return g;
  }
};

/// One thread's runtime state.
struct ThreadRecord {
  /// The ordinal while the tenancy lasts, else kNoOrdinal (before the
  /// first thread_ordinal() and after the exit hook).
  unsigned ordinal = kNoOrdinal;
  bool ended = false;  ///< the exit hook has run: take no ordinal again
  bool armed = false;  ///< the exit hook runs when this thread exits
  WaitStats waits;     ///< running totals, drained by the exit hook
};

// Constant-initialized and trivially destructible: reading the record is
// one thread-local access with no initialization guard or wrapper call,
// and it registers no destructor.
static_assert(std::is_trivially_destructible_v<ThreadRecord>);
inline thread_local constinit ThreadRecord thread_record{};

/// The exit hook: drains the wait counters into the process totals, so a
/// coordinator that has JOINED its workers reads exact sums, then ends the
/// tenancy, clearing the ordinal before it goes back to the pool. The key
/// was cleared before this call (POSIX), so a wait flush from a later key
/// destructor re-arms the hook and is drained on the next pass.
inline void on_thread_exit(void* p) noexcept {
  ThreadRecord& r = *static_cast<ThreadRecord*>(p);
  r.armed = false;
  r.ended = true;
  {
    GlobalWaitStats& g = GlobalWaitStats::instance();
    const std::lock_guard<std::mutex> lk(g.mu);
    g.exited += std::exchange(r.waits, {});
  }
  if (const unsigned o = std::exchange(r.ordinal, kNoOrdinal);
      o != kNoOrdinal) {
    OrdinalPool::instance().release(o);
  }
}

/// Arms the exit hook for the calling thread: once, on its first
/// thread_ordinal() or first wait flush.
[[gnu::cold, gnu::noinline]] inline void arm_exit_hook() noexcept {
  static const pthread_key_t key = [] {
    pthread_key_t k;
    if (pthread_key_create(&k, on_thread_exit) != 0) std::abort();
    return k;
  }();
  thread_record.armed = true;
  pthread_setspecific(key, &thread_record);
}

/// The cold half of thread_ordinal(): takes the tenancy on a thread's
/// first call. A call after the exit hook ran returns kNoOrdinal.
[[gnu::cold, gnu::noinline]] inline unsigned take_ordinal() noexcept {
  ThreadRecord& r = thread_record;
  if (r.ended) return kNoOrdinal;
  r.ordinal = OrdinalPool::instance().acquire();
  if (!r.armed) arm_exit_hook();
  return r.ordinal;
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
  const unsigned o = detail::thread_record.ordinal;
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
/// reads the record's ordinal without taking a tenancy, so it makes no call;
/// a thread that holds no ordinal owns no slot. Every other caller (an
/// ordinal at or above the slot count that aliases onto the slot, or a
/// caller passing an explicit slot) takes a fetch_add on `shared`.
/// Quiesced, total() is exact; mid-run it is a relaxed snapshot.
struct SlotCounter {
  std::atomic<std::uint64_t> own{0};
  std::atomic<std::uint64_t> shared{0};

  void add_one(unsigned slot) noexcept {
    if (detail::thread_record.ordinal == slot) {
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
