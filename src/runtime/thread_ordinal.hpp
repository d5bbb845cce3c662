// Dense per-thread ordinals, the per-thread record that holds them and the
// thread's other runtime state, and the per-slot counter that keys on them.
//
// thread_ordinal() is the runtime layer's thread → slot map: a combiner's
// slot, a reader slot, a simulated processor and a shard key are all
// derived from it. An ordinal has at most one live owner at a time, and it
// passes from an exiting thread to the next one through OrdinalPool's free
// bitmap: the old owner sets its bit with a release fetch_or, and the new
// owner clears it with an acquire CAS that reads that fetch_or (or a later
// RMW of the word), so the old owner's last write happens-before the new
// owner's first read. SlotCounter builds on that: a word only the slot's owner
// writes needs no locked read-modify-write to count exactly. The thread's
// spare CLH queue nodes pass the same way: the exit hook parks them in the
// ordinal's pool slot, and the ordinal's next tenant adopts them.
//
// A thread's runtime state is one constant-initialized, trivially
// destructible thread_local record, the only thread_local in the runtime:
// its ordinal, its wait counters (wait_policy.hpp), its shard route key
// (sharded_backend.hpp), its spare CLH nodes (local_spin_locks.hpp) and
// three flags. It registers no C++ thread_local destructor, so a thread's
// first runtime call allocates nothing (glibc's __cxa_thread_atexit callocs
// one entry per destructor, and a thread's first malloc gives it its own
// arena: 4 KiB resident and 64 MiB of address space). The record is torn
// down by one POSIX thread-specific key instead, the exit hook, armed on
// the thread's first thread_ordinal(), first wait flush or first spare CLH
// node. glibc keeps a key below index 32 inside the thread descriptor, so
// arming it allocates nothing either.
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

#include "runtime/cacheline.hpp"

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

/// A CLH queue node (local_spin_locks.hpp). Nodes migrate between threads
/// and between locks: a thread enqueues one of its spares and adopts its
/// predecessor's node on release. `next` links the owning thread's spare
/// list and is unused while the node is queued.
struct alignas(kCacheLine) ClhNode {
  std::atomic<std::uint32_t> locked{0};
  ClhNode* next = nullptr;
};

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
/// thread's exit hook). Each of those ordinals also has a slot that parks
/// its last tenant's spare CLH nodes for the next one. A slot is touched
/// only by the ordinal's owner, ordered by the bitmap's fetch_or and CAS.
/// The slot table is allocated on the process's first CLH node allocation
/// (make_slots), before any thread can hold a spare, so parking allocates
/// nothing either, and a process that takes no CLH lock has no table.
/// Past the capacity, ordinals are handed out fresh from the counter and
/// never reused: release drops an ordinal at or above kCapacity, and
/// park_spares frees its spares. A process that keeps more than kCapacity
/// threads alive at once therefore counts past them, which widens only the
/// aliasing of slot_of mappings.
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

  /// Parks the spares of ordinal `o`'s tenant for the next one, before
  /// release(o); past the capacity, where `o` is never reused, frees them.
  void park_spares(unsigned o, ClhNode* spares) noexcept {
    ClhNode** const slots = slots_.load(std::memory_order_acquire);
    if (o >= kCapacity || slots == nullptr) {
      while (spares != nullptr) delete std::exchange(spares, spares->next);
    } else if (spares != nullptr) {
      slots[o] = spares;
    }
  }

  /// Takes the spares parked for ordinal `o`, after acquire() returned it.
  ClhNode* adopt_spares(unsigned o) noexcept {
    ClhNode** const slots = slots_.load(std::memory_order_acquire);
    if (o >= kCapacity || slots == nullptr) return nullptr;
    return std::exchange(slots[o], nullptr);
  }

  void make_slots() {
    if (slots_.load(std::memory_order_acquire) != nullptr) return;
    ClhNode** expected = nullptr;
    ClhNode** const made = new ClhNode*[kCapacity]{};
    if (!slots_.compare_exchange_strong(expected, made)) delete[] made;
  }

 private:
  static constexpr unsigned kWords = kCapacity / 64;

  std::atomic<std::uint64_t> free_[kWords] = {};  // bit o: ordinal o is free
  std::atomic<unsigned> next_{0};
  std::atomic<ClhNode**> slots_{nullptr};  // slot o: its last tenant's spares
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
  bool ended = false;   ///< the exit hook has run: take no ordinal again
  bool armed = false;   ///< the exit hook runs when this thread exits
  bool routed = false;  ///< a ScopedRouteKey installed route_key
  WaitStats waits;      ///< running totals, drained by the exit hook
  std::uint64_t route_key = 0;  ///< the shard route key while routed
  ClhNode* spares = nullptr;    ///< spare CLH nodes, linked by `next`
};

// Constant-initialized and trivially destructible: reading the record is
// one thread-local access with no initialization guard or wrapper call,
// and it registers no destructor.
static_assert(std::is_trivially_destructible_v<ThreadRecord>);
// Every thread carries it in its static TLS block: keep it within a line.
static_assert(sizeof(ThreadRecord) <= kCacheLine);
inline thread_local constinit ThreadRecord thread_record{};

/// The exit hook: drains the wait counters into the process totals, so a
/// coordinator that has JOINED its workers reads exact sums, then ends the
/// tenancy, clearing the ordinal before it goes back to the pool with the
/// thread's spare CLH nodes. The key was cleared before this call (POSIX),
/// so a wait flush or a spare from a later key destructor re-arms the hook
/// and is drained on the next pass, where the ordinal reads kNoOrdinal and
/// the spares are freed.
inline void on_thread_exit(void* p) noexcept {
  ThreadRecord& r = *static_cast<ThreadRecord*>(p);
  r.armed = false;
  r.ended = true;
  {
    GlobalWaitStats& g = GlobalWaitStats::instance();
    const std::lock_guard<std::mutex> lk(g.mu);
    g.exited += std::exchange(r.waits, {});
  }
  OrdinalPool& pool = OrdinalPool::instance();
  const unsigned o = std::exchange(r.ordinal, kNoOrdinal);
  pool.park_spares(o, std::exchange(r.spares, nullptr));
  pool.release(o);
}

/// Arms the exit hook for the calling thread: once, on its first
/// thread_ordinal(), first wait flush or first spare CLH node.
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
/// first call, with the spare CLH nodes the ordinal's last tenant parked.
/// The thread holds no spare yet: its first comes from a CLH release, and
/// its first CLH acquire takes the tenancy. A call after the exit hook ran
/// returns kNoOrdinal.
[[gnu::cold, gnu::noinline]] inline unsigned take_ordinal() noexcept {
  ThreadRecord& r = thread_record;
  if (r.ended) return kNoOrdinal;
  OrdinalPool& pool = OrdinalPool::instance();
  r.ordinal = pool.acquire();
  r.spares = pool.adopt_spares(r.ordinal);
  if (!r.armed) arm_exit_hook();
  return r.ordinal;
}

/// The calling thread's record with its exit hook armed, so that the
/// wait counters and spare CLH nodes it gains drain when the thread exits.
inline ThreadRecord& armed_record() noexcept {
  if (!thread_record.armed) [[unlikely]] arm_exit_hook();
  return thread_record;
}

/// The cold half of pop_clh_node(): takes the tenancy, which may adopt
/// spares, and allocates only if it adopted none.
[[gnu::cold, gnu::noinline]] inline ClhNode* take_clh_node() {
  ThreadRecord& r = thread_record;
  if (r.ordinal == kNoOrdinal) (void)take_ordinal();
  if (r.spares != nullptr) return std::exchange(r.spares, r.spares->next);
  OrdinalPool::instance().make_slots();
  return new ClhNode;
}

/// One of the calling thread's spare CLH nodes, for it to enqueue.
inline ClhNode* pop_clh_node() {
  ThreadRecord& r = thread_record;
  if (r.spares == nullptr) [[unlikely]] return take_clh_node();
  return std::exchange(r.spares, r.spares->next);
}

/// Gives the calling thread a spare CLH node: the predecessor's node a
/// release adopts.
inline void push_clh_node(ClhNode* n) noexcept {
  ThreadRecord& r = armed_record();
  n->next = std::exchange(r.spares, n);
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
