// The Ultracomputer parallel FIFO queue (Gottlieb–Lubachevsky–Rudolph [10]),
// modernized: enqueuers and dequeuers claim slots with fetch-and-add on two
// tickets, and each slot carries a phase tag (the per-cell analogue of a
// full/empty bit with a round counter) so that a producer waits for its
// slot to be empty *for its round* and a consumer for full *for its round*.
// No critical section anywhere: with combining memory the ticket
// fetch-and-adds are conflict-free, which is precisely why the paper's
// machine wanted combinable fetch-and-add.
//
// The two ticket words live in RmwBackend cells (runtime/rmw_backend.hpp):
// with AtomicBackend (the default) they are the hardware CAS words of the
// classic algorithm; with CombiningBackend the ticket traffic funnels
// through a software combining tree. The bounded variant must claim
// conditionally (a full queue rejects), so tickets advance by
// compare_exchange rather than a blind fetch-and-add — on a combining
// backend that conditional claim is a CAS loop on the tree's root word,
// linearized against all direct and combined traffic. Per-slot phase tags
// stay plain atomics: they are spread across slots by construction, never
// a hot spot.
//
// The Instrument policy (analysis/instrument.hpp) publishes per-cell
// happens-before edges: an enqueue releases the producer's history into
// its claimed cell before flipping the phase tag, and the dequeue of that
// same cell acquires it — the producer→consumer edge that makes handing
// unsynchronized payload through the queue race-free, without ordering
// unrelated enqueue/dequeue pairs against each other.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "analysis/instrument.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/rmw_backend.hpp"
#include "runtime/wait_policy.hpp"
#include "util/assert.hpp"
#include "util/bits.hpp"

namespace krs::runtime {

template <typename T, typename Instrument = analysis::DefaultInstrument,
          RmwBackend Backend = AtomicBackend,
          WaitPolicy Policy = SpinYieldWait>
class ParallelQueue {
 public:
  /// Capacity must be a power of two.
  explicit ParallelQueue(std::size_t capacity, Backend backend = Backend{})
      : backend_(std::move(backend)),
        cells_(capacity),
        tail_(backend_, 0),
        head_(backend_, 0) {
    KRS_EXPECTS(capacity >= 1 && util::is_pow2(capacity));
    for (std::size_t i = 0; i < capacity; ++i) {
      cells_[i].phase.store(i, std::memory_order_relaxed);
    }
  }

  ParallelQueue(const ParallelQueue&) = delete;
  ParallelQueue& operator=(const ParallelQueue&) = delete;

  /// Non-blocking enqueue; false when the queue is full.
  bool try_enqueue(T v) {
    Word ticket = backend_.load(tail_);
    for (;;) {
      Cell& c = cells_[ticket & (cells_.size() - 1)];
      Instrument::shared_load(&c.phase, KRS_SITE);
      const std::uint64_t phase = c.phase.load(std::memory_order_acquire);
      if (phase == ticket) {
        // Slot empty for this round: claim the ticket.
        if (backend_.compare_exchange(tail_, ticket, ticket + 1)) {
          // Publish before the phase flip: the matching dequeuer cannot
          // succeed (and acquire) until the tag says full-for-its-round.
          Instrument::release(&c);
          c.item = std::move(v);
          Instrument::shared_store(&c.phase, KRS_SITE);
          c.phase.store(ticket + 1, std::memory_order_release);
          return true;
        }
        // compare_exchange reloaded `ticket` with the current tail.
      } else if (phase < ticket) {
        return false;  // still occupied by the previous round: full
      } else {
        ticket = backend_.load(tail_);
      }
    }
  }

  /// Non-blocking dequeue; nullopt when the queue is empty.
  std::optional<T> try_dequeue() {
    Word ticket = backend_.load(head_);
    for (;;) {
      Cell& c = cells_[ticket & (cells_.size() - 1)];
      Instrument::shared_load(&c.phase, KRS_SITE);
      const std::uint64_t phase = c.phase.load(std::memory_order_acquire);
      if (phase == ticket + 1) {
        if (backend_.compare_exchange(head_, ticket, ticket + 1)) {
          Instrument::acquire(&c);
          T v = std::move(c.item);
          Instrument::shared_store(&c.phase, KRS_SITE);
          c.phase.store(ticket + cells_.size(), std::memory_order_release);
          return v;
        }
      } else if (phase < ticket + 1) {
        return std::nullopt;  // producer not done yet: empty
      } else {
        ticket = backend_.load(head_);
      }
    }
  }

  void enqueue(T v) {
    Policy pol;
    while (!try_enqueue(std::move(v))) pol.pause();
  }

  T dequeue() {
    Policy pol;
    for (;;) {
      if (auto v = try_dequeue()) return *std::move(v);
      pol.pause();
    }
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return cells_.size(); }

  /// Approximate size (racy; exact when quiescent).
  [[nodiscard]] std::size_t size() const noexcept {
    const Word t = backend_.load(tail_);
    const Word h = backend_.load(head_);
    return t >= h ? static_cast<std::size_t>(t - h) : 0;
  }

 private:
  // One destructive-interference granule per cell: adjacent slots are
  // claimed by different threads, and sharing a line would serialize them
  // through the coherence protocol even though they never conflict.
  struct alignas(kCacheLine) Cell {
    std::atomic<std::uint64_t> phase{0};
    T item{};
  };

  Backend backend_;
  std::vector<Cell> cells_;
  typename Backend::Cell tail_;
  typename Backend::Cell head_;
};

}  // namespace krs::runtime
