// A static combining-tree barrier: arrivals combine pairwise up a binary
// tree (each node's last arrival propagates), the release fans back down —
// the software shape of §6's combining tree, specialized to the barrier
// where the combined "operation" is just a count. Unlike the centralized
// fetch-and-add barrier, no single cell takes P updates per phase, so the
// structure scales on machines WITHOUT combining hardware — the software
// fallback the Ultracomputer line of work contrasts against.
//
// The Instrument policy (analysis/instrument.hpp) publishes the barrier's
// happens-before edges: every arrival releases its pre-barrier history
// into the barrier object, every departure acquires the joined history of
// all parties — the edge set a race detector needs to see phase N work
// ordered before phase N+1 work.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "analysis/instrument.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/wait_policy.hpp"
#include "util/assert.hpp"
#include "util/bits.hpp"

namespace krs::runtime {

template <typename Instrument = analysis::DefaultInstrument,
          WaitPolicy Policy = SpinYieldWait>
class BasicTreeBarrier {
 public:
  /// `parties` threads, identified by slot 0..parties-1. Callers keep a
  /// per-thread `bool sense`, initially false, flipped by every call.
  explicit BasicTreeBarrier(unsigned parties) : parties_(parties) {
    KRS_EXPECTS(parties >= 1);
    // Internal nodes in heap layout over ceil_pow2(parties) leaves.
    const auto width = util::ceil_pow2(parties);
    nodes_.resize(width);
    for (auto& n : nodes_) n = std::make_unique<Node>();
  }

  void arrive_and_wait(unsigned slot, bool& sense) {
    KRS_EXPECTS(slot < parties_);
    // Arrival: publish everything this thread did before the barrier.
    Instrument::release(this);
    // The value the release word takes when THIS phase completes: phases
    // alternate 1, 0, 1, … starting from the initial 0.
    const std::uint32_t target = sense ? 0u : 1u;
    sense = !sense;
    // Ascend: the second arrival at each node continues upward; the first
    // waits for the release wave.
    unsigned node = (static_cast<unsigned>(nodes_.size()) + slot) / 2;
    bool climbing = true;
    while (climbing && node >= 1) {
      // A node with a single child (odd parties padding) auto-continues.
      if (!has_sibling(slot, node)) {
        node /= 2;
        continue;
      }
      if (!nodes_[node]->arrived.exchange(true, std::memory_order_acq_rel)) {
        climbing = false;  // first at this node: wait here
        break;
      }
      nodes_[node]->arrived.store(false, std::memory_order_relaxed);
      node /= 2;
    }
    if (node < 1 || climbing) {
      // Reached past the root: this thread triggers the release.
      release_.store(target, std::memory_order_release);
      if constexpr (Policy::kParks) Policy::notify_all(release_);
    } else {
      Policy pol;
      while (release_.load(std::memory_order_acquire) != target) {
        // The release word only ever holds 0 or 1, so "not yet my sense"
        // is exactly "still the previous phase's sense" — addressable.
        // Only the last arrival writes it: a handoff, so watch it.
        pol.watch_while_equal(release_, target ^ 1u);
      }
    }
    // Departure: absorb every party's pre-barrier history. All arrivals
    // released above before any waiter passes the release wave, so the
    // joined clock covers the whole phase.
    Instrument::acquire(this);
  }

 private:
  // Padded: adjacent nodes are hammered by disjoint thread pairs during
  // the ascent; sharing a line would couple their arrival CASes.
  struct alignas(kCacheLine) Node {
    std::atomic<bool> arrived{false};
  };

  /// Whether this node actually has two live children for the given
  /// party count (padding leaves of a non-power-of-two count are absent).
  [[nodiscard]] bool has_sibling(unsigned /*slot*/, unsigned node) const {
    // A node combines two subtrees; when the party count is not a power of
    // two, a right subtree may contain no live leaf — then the node has a
    // single effective child and arrivals pass through. Find the leftmost
    // leaf (heap descent by left children) of the right child's subtree.
    const auto width = static_cast<unsigned>(nodes_.size());
    unsigned right = 2 * node + 1;
    while (right < width) right *= 2;
    const unsigned right_leaf_slot = right - width;
    return right_leaf_slot < parties_;
  }

  unsigned parties_;
  std::vector<std::unique_ptr<Node>> nodes_;
  // Sense word, 0/1 alternating per phase. u32 (not bool) so a parking
  // wait policy can futex-wait on it directly.
  std::atomic<std::uint32_t> release_{0};
};

using TreeBarrier = BasicTreeBarrier<>;

}  // namespace krs::runtime
