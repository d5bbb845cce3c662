// Fetch-and-add coordination algorithms — the "efficient coordination code
// for the NYU Ultracomputer operating system" lineage ([10], §2) that
// motivates making fetch-and-add combinable: none of these has a serial
// critical section; every operation is a constant number of RMW accesses
// that a combining memory serves in parallel.
//
// The algorithms are written against the RmwBackend seam
// (runtime/rmw_backend.hpp): every hot word is a backend cell, and every
// RMW on it goes through the backend. Instantiated with AtomicBackend
// (the default) they are the classic hardware fetch-and-θ algorithms;
// with CombiningBackend the same code runs with its hot spot served by a
// software combining tree — the paper's substrate-portability claim as a
// template parameter.
//
// Every primitive also takes an Instrument policy (analysis/instrument.hpp)
// that publishes its happens-before edges to the race detector; the
// default policy compiles to nothing.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "analysis/instrument.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/rmw_backend.hpp"
#include "runtime/wait_policy.hpp"
#include "util/assert.hpp"

namespace krs::runtime {

/// Centralized fetch-and-add barrier: one fetch-and-add per arrival. Each
/// arrival takes a ticket; ticket/parties is the phase it belongs to, and
/// the last arrival of a phase (ticket % parties == parties-1) publishes
/// the next phase number. The count never resets, so the algorithm is
/// identical under a combining backend (a reset store would race with
/// in-flight combined adds). With combining, P simultaneous arrivals cost
/// O(log P) root operations instead of P.
///
/// Phase-numbered rather than sense-reversing so threads carry NO per-
/// thread state: any `parties` threads (including freshly spawned ones)
/// can use the barrier at any time — sense-reversing barriers go wrong
/// when new threads join with a stale sense.
template <RmwBackend Backend = AtomicBackend,
          typename Instrument = analysis::DefaultInstrument,
          WaitPolicy Policy = SpinYieldWait>
class BasicBarrier {
 public:
  explicit BasicBarrier(unsigned parties, Backend backend = Backend{})
      : backend_(std::move(backend)), parties_(parties), count_(backend_, 0) {
    KRS_EXPECTS(parties >= 1);
  }

  void arrive_and_wait() {
    // Publish this thread's pre-barrier history before counting in.
    Instrument::release(this);
    const Word ticket = backend_.fetch_add(count_, 1);
    const Word my_phase = ticket / parties_;
    if (ticket % parties_ == parties_ - 1) {
      phase_.store(my_phase + 1, std::memory_order_release);
    } else {
      // Only the last arrival writes the phase word: a handoff, so watch
      // it. It is 64-bit (monotonic, never reused), not addressable by a
      // parking policy's 32-bit wait word, so a park round is a timed
      // sleep.
      const auto released = [this, my_phase] {
        return phase_.load(std::memory_order_acquire) > my_phase;
      };
      Policy pol;
      while (!released()) pol.watch_until(released);
    }
    // Absorb every party's pre-barrier history on the way out.
    Instrument::acquire(this);
  }

  /// Number of completed phases.
  [[nodiscard]] Word phase() const noexcept {
    return phase_.load(std::memory_order_acquire);
  }

 private:
  Backend backend_;
  unsigned parties_;
  typename Backend::Cell count_;
  std::atomic<Word> phase_{0};
};

/// The historical name: the barrier on hardware fetch-and-add.
template <typename Instrument = analysis::DefaultInstrument>
using BasicFaaBarrier = BasicBarrier<AtomicBackend, Instrument>;

using FaaBarrier = BasicFaaBarrier<>;

/// Readers–writers coordination in the busy-waiting fetch-and-add style of
/// Gottlieb–Lubachevsky–Rudolph: readers announce with fetch-and-add and
/// retreat if a writer holds the lock; a writer takes a flag with
/// test-and-set (fetch-and-or) and waits for readers to drain.
///
/// The reader count is a distributed indicator: kReaderSlots backend cells,
/// each on its own line, and a reader counts itself on slot
/// thread_ordinal() % kReaderSlots. Without a combining memory one shared
/// count is a hot spot every read section writes twice; striped, readers
/// on different slots never touch a common line, and only a writer reads
/// every slot. Each slot still counts exactly the readers announced on it
/// and never goes negative, because a reader announces, retreats and
/// leaves on the same slot. Hence the one precondition the single count
/// did not have: read_unlock must run on the thread that called read_lock.
///
/// Ordering: on each slot the handshake is a store→load pair per side —
/// the reader's RMW on its slot then its load of the writer flag, the
/// writer's RMW on the flag then its load of the slot. Exclusion needs
/// each side's RMW to perform before its load (M1 of §3.2, or M2 with a
/// fence between them), exactly as it did with one count;
/// tests/test_interleave.cpp pins that requirement as a litmus pair.
template <RmwBackend Backend = AtomicBackend,
          typename Instrument = analysis::DefaultInstrument,
          WaitPolicy Policy = SpinYieldWait>
class BasicRwLock {
 public:
  /// Reader slots per lock: readers on distinct slots share no line.
  static constexpr unsigned kReaderSlots = 8;

  explicit BasicRwLock(Backend backend = Backend{})
      : backend_(std::move(backend)),
        slots_(make_slots(backend_,
                          std::make_index_sequence<kReaderSlots>{})),
        writer_(backend_, 0) {}

  void read_lock() {
    typename Backend::Cell& slot = my_slot();
    Policy pol;
    for (;;) {
      backend_.fetch_add(slot, 1);
      if (backend_.load(writer_) == 0) {
        Instrument::acquire(this);
        return;
      }
      // A writer is active or arriving: retreat and retry.
      backend_.fetch_add(slot, Word{0} - 1);
      while (backend_.load(writer_) != 0) pol.pause();
      pol.reset();  // writer drained: a fresh wait episode on retry
    }
  }

  /// Must run on the thread that called read_lock (it leaves that slot).
  void read_unlock() {
    Instrument::release(this);
    backend_.fetch_add(my_slot(), Word{0} - 1);
  }

  void write_lock() {
    Policy pol;
    // test-and-set(X) ≡ fetch-and-OR(X, 1) (§5.2).
    while ((backend_.fetch_or(writer_, 1) & 1) != 0) pol.pause();
    pol.reset();  // flag taken: draining readers is a new episode
    // Wait for in-flight readers to drain or retreat, slot by slot.
    for (ReaderSlot& s : slots_) {
      while (backend_.load(s.count) != 0) pol.pause();
    }
    Instrument::acquire(this);
  }

  void write_unlock() {
    Instrument::release(this);
    backend_.store(writer_, 0);
  }

 private:
  friend struct RwLockTestPeer;

  struct alignas(kCacheLine) ReaderSlot {
    explicit ReaderSlot(const Backend& b) : count(b, 0) {}
    typename Backend::Cell count;
  };

  template <std::size_t... I>
  static std::array<ReaderSlot, kReaderSlots> make_slots(
      const Backend& b, std::index_sequence<I...>) {
    return {{((void)I, ReaderSlot(b))...}};
  }

  typename Backend::Cell& my_slot() noexcept {
    return slots_[thread_ordinal() % kReaderSlots].count;
  }

  Backend backend_;
  std::array<ReaderSlot, kReaderSlots> slots_;
  typename Backend::Cell writer_;  // on a fresh line: slots are line-sized
};

template <typename Instrument = analysis::DefaultInstrument>
using BasicFaaRwLock = BasicRwLock<AtomicBackend, Instrument>;

using FaaRwLock = BasicFaaRwLock<>;

/// Counting semaphore with busy-waiting P/V on a fetch-and-add counter —
/// Dijkstra's semaphore implemented the replace-add way: P provisionally
/// decrements and retreats if the result went negative. The counter lives
/// in a backend cell as a two's-complement Word (addition mod 2^64 is
/// sign-agnostic, so the combining FetchAdd family carries negative
/// deltas unchanged).
template <RmwBackend Backend = AtomicBackend,
          typename Instrument = analysis::DefaultInstrument,
          WaitPolicy Policy = SpinYieldWait>
class BasicSemaphore {
 public:
  explicit BasicSemaphore(std::int64_t initial, Backend backend = Backend{})
      : backend_(std::move(backend)),
        value_(backend_, static_cast<Word>(initial)) {}

  void p() {
    Policy pol;
    for (;;) {
      if (as_count(backend_.fetch_add(value_, Word{0} - 1)) > 0) {
        Instrument::acquire(this);
        return;
      }
      backend_.fetch_add(value_, 1);  // retreat
      while (as_count(backend_.load(value_)) <= 0) pol.pause();
      pol.reset();  // counter went positive: a fresh episode on retry
    }
  }

  [[nodiscard]] bool try_p() {
    if (as_count(backend_.fetch_add(value_, Word{0} - 1)) > 0) {
      Instrument::acquire(this);
      return true;
    }
    backend_.fetch_add(value_, 1);
    return false;
  }

  void v() {
    Instrument::release(this);
    backend_.fetch_add(value_, 1);
  }

  [[nodiscard]] std::int64_t value() const {
    return as_count(backend_.load(value_));
  }

 private:
  static std::int64_t as_count(Word w) noexcept {
    return static_cast<std::int64_t>(w);
  }

  Backend backend_;
  typename Backend::Cell value_;
};

template <typename Instrument = analysis::DefaultInstrument>
using BasicFaaSemaphore = BasicSemaphore<AtomicBackend, Instrument>;

using FaaSemaphore = BasicFaaSemaphore<>;

}  // namespace krs::runtime
