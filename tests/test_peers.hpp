// Test-only peers of the two software combiners and the readers–writers
// lock, shared by the test files that drive their private protocol
// piecewise or check their layout. Each is a friend of its class
// (combining_tree.hpp, flat_combining.hpp, coordination.hpp). Also the
// scripted wait policy both combiners' window tests drive them with, and
// the round-boundary check their reply-wait tests share.
#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/any_rmw.hpp"
#include "core/types.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/wait_policy.hpp"

namespace krs::runtime {

/// The cache lines [first, last] one object spans (address / kCacheLine).
struct LineSpan {
  std::uintptr_t first;
  std::uintptr_t last;

  [[nodiscard]] bool overlaps(const LineSpan& o) const {
    return first <= o.last && o.first <= last;
  }
};

template <typename T>
LineSpan lines_of(const T& x) {
  const auto a = reinterpret_cast<std::uintptr_t>(&x);
  return {a / kCacheLine, (a + sizeof(T) - 1) / kCacheLine};
}

/// One data member of a combiner and the lines it occupies.
struct Member {
  const char* name;
  LineSpan lines;
};

/// A WaitPolicy that pauses for nothing and runs a test callback on each
/// wait round, numbered from 0 across the test: the only way to act at a
/// chosen round of a single-threaded combiner's wait (the flat combiner's
/// election window, the tree's collision window and reply wait). Every
/// call is one round, blind or watching.
struct ScriptedWait {
  static constexpr bool kParks = false;
  static inline unsigned waits = 0;
  static inline std::function<void(unsigned)> on_wait;
  void pause() {
    const unsigned w = waits++;
    if (on_wait) on_wait(w);
  }
  void wait_while_equal(const std::atomic<std::uint32_t>&, std::uint32_t) {
    pause();
  }
  void watch_while_equal(const std::atomic<std::uint32_t>&, std::uint32_t) {
    pause();
  }
  template <typename Ready>
  void watch_until(Ready&&) {
    pause();
  }
  void reset() {}
  static void notify_one(std::atomic<std::uint32_t>&) {}
  static void notify_all(std::atomic<std::uint32_t>&) {}
};
static_assert(WaitPolicy<ScriptedWait>);

/// True when `spins` is what whole spin-grace rounds add up to
/// (1+2+…+2^k = 2^(k+1) − 1): a wait that ended between rounds. A blind
/// wait always does; a watching wait ends mid-round when its word changes
/// during one.
inline bool ends_on_a_round_boundary(std::uint64_t spins) {
  return ((spins + 1) & spins) == 0;
}

// Test-only peer: drives the private four-phase protocol single-threaded
// so fold/decline telemetry is deterministic (under real concurrency the
// First→combine window is too narrow to hit reliably on a 1-CPU host),
// and exposes the lines its members occupy.
struct CombiningTreeTestPeer {
  /// An op whose direct CAS lost: phases 1–4 (with the collision window),
  /// returning the prior.
  template <typename Tree, typename M>
  static typename Tree::value_type climb(Tree& t, unsigned slot, const M& f) {
    return t.meet(slot, f);
  }
  template <typename Tree>
  static bool precombine(Tree& t, unsigned n) {
    return t.precombine(n);
  }
  template <typename Tree, typename M>
  static M combine(Tree& t, unsigned n, M c) {
    return t.combine(n, std::move(c));
  }
  template <typename Tree, typename M>
  static typename Tree::value_type apply_at_root(Tree& t, const M& c) {
    return t.apply_at_root(c);
  }
  /// The non-waiting first half of deposit_and_await: plant the second's
  /// mapping and flip the node to SecondReady.
  template <typename Tree, typename M>
  static void deposit_second(Tree& t, unsigned n, M c) {
    auto& nd = t.nodes_[n];
    const std::uint64_t w = nd.status.load(std::memory_order_relaxed);
    ASSERT_EQ(Tree::tag_of(w), Tree::kSecondPending);
    nd.second_map = std::move(c);
    nd.status.store(Tree::retag(w, Tree::kSecondReady),
                    std::memory_order_release);
  }
  /// Has a second deposited its mapping at node `n`?
  template <typename Tree>
  static bool second_ready(const Tree& t, unsigned n) {
    return Tree::tag_of(t.nodes_[n].status.load(std::memory_order_acquire)) ==
           Tree::kSecondReady;
  }
  template <typename Tree>
  static void distribute(Tree& t, unsigned n,
                         const typename Tree::value_type& prior) {
    t.distribute(n, prior);
  }
  /// The second's reply pickup (the tail of deposit_and_await).
  template <typename Tree>
  static typename Tree::value_type take_result(Tree& t, unsigned n) {
    auto& nd = t.nodes_[n];
    const std::uint64_t w = nd.status.load(std::memory_order_acquire);
    EXPECT_EQ(Tree::tag_of(w), Tree::kResult);
    const auto r = nd.result;
    nd.status.store(Tree::idle_next_gen(w), std::memory_order_release);
    return r;
  }

  /// The lines of the members the one-writer-per-hot-line rule places.
  template <typename Tree>
  static std::vector<Member> members(const Tree& t) {
    return {{"nslots_", lines_of(t.nslots_)},
            {"nodes_", lines_of(t.nodes_)},
            {"direct_applies_", lines_of(t.direct_applies_)},
            {"root_", lines_of(t.value_)},  // the value word (the root)
            {"root_applies_", lines_of(t.root_applies_)}};
  }
  template <typename Tree>
  static LineSpan direct_counter(const Tree& t, unsigned slot) {
    return lines_of(t.direct_applies_[slot]);
  }
  /// One slot's two counter words: the owner's, then the aliases'.
  template <typename Tree>
  static std::vector<LineSpan> direct_counter_words(const Tree& t,
                                                    unsigned slot) {
    const auto& c = t.direct_applies_[slot];
    return {lines_of(c.own), lines_of(c.shared)};
  }
  /// One slot's direct-apply counts: {the owner's word, the aliases'}.
  template <typename Tree>
  static std::pair<std::uint64_t, std::uint64_t> direct_counts(
      const Tree& t, unsigned slot) {
    const auto& c = t.direct_applies_[slot];
    return {c.own.load(), c.shared.load()};
  }
  /// One node's lines: [0] its status line, then every word its first
  /// writes before storing `status`.
  template <typename Tree>
  static std::vector<LineSpan> node_first_words(const Tree& t, unsigned n) {
    const auto& nd = t.nodes_[n];
    return {lines_of(nd.status), lines_of(nd.result), lines_of(nd.declined),
            lines_of(nd.folds), lines_of(nd.declined_folds)};
  }
  template <typename Tree>
  static constexpr std::size_t node_size() {
    return sizeof(typename Tree::Node);
  }
};

// Test-only peer: drives the private publication protocol piecewise so
// the handoff branch (pass cap hit with work still pending) is reachable
// deterministically — under free-running threads that window depends on a
// publication landing mid-scan. Also exposes the lines its members occupy.
struct FlatCombinerTestPeer {
  template <typename FC>
  static void publish(FC& fc, unsigned slot, krs::core::AnyRmw op) {
    auto& s = fc.slots_[slot];
    std::uint32_t expect = FC::kIdle;
    ASSERT_TRUE(s.seq.compare_exchange_strong(expect, FC::kClaimed,
                                              std::memory_order_acquire,
                                              std::memory_order_relaxed));
    s.op = std::move(op);
    s.seq.store(FC::kPending, std::memory_order_release);
  }
  template <typename FC>
  static bool lock(FC& fc) {
    return fc.try_lock();
  }
  template <typename FC>
  static void unlock(FC& fc) {
    fc.unlock();
  }
  /// One combiner tenure (lock must be held).
  template <typename FC>
  static void combine(FC& fc) {
    fc.combine(nullptr);
  }
  /// The tenure of a publisher that elected itself for its op in `own`.
  template <typename FC>
  static void combine(FC& fc, unsigned own) {
    fc.combine(&fc.slots_[own]);
  }
  /// An op whose direct CAS lost: the whole collision path (publish, the
  /// election window, then a reply or a tenure), returning the prior.
  template <typename FC>
  static krs::core::Word collide(FC& fc, unsigned slot,
                                 const krs::core::AnyRmw& op) {
    return fc.meet(slot, op);
  }
  /// The owner's reply pickup.
  template <typename FC>
  static krs::core::Word take(FC& fc, unsigned slot) {
    auto& s = fc.slots_[slot];
    EXPECT_EQ(s.seq.load(std::memory_order_acquire),
              static_cast<std::uint32_t>(FC::kDone));
    const krs::core::Word r = s.result;
    s.seq.store(FC::kIdle, std::memory_order_release);
    return r;
  }
  template <typename FC>
  static bool pending(const FC& fc, unsigned slot) {
    return fc.slots_[slot].seq.load(std::memory_order_acquire) ==
           static_cast<std::uint32_t>(FC::kPending);
  }

  /// One slot's direct-apply counts: {the owner's word, the aliases'}.
  template <typename FC>
  static std::pair<std::uint64_t, std::uint64_t> direct_counts(
      const FC& fc, unsigned slot) {
    const auto& c = fc.slots_[slot].direct;
    return {c.own.load(), c.shared.load()};
  }
  /// One slot's publication words: seq, op, result.
  template <typename FC>
  static std::vector<LineSpan> publication_words(const FC& fc,
                                                 unsigned slot) {
    const auto& s = fc.slots_[slot];
    return {lines_of(s.seq), lines_of(s.op), lines_of(s.result)};
  }
  /// One slot's two counter words: the owner's, then the aliases'.
  template <typename FC>
  static std::vector<LineSpan> direct_counter_words(const FC& fc,
                                                    unsigned slot) {
    const auto& c = fc.slots_[slot].direct;
    return {lines_of(c.own), lines_of(c.shared)};
  }
  template <typename FC>
  static constexpr std::size_t slot_size() {
    return sizeof(typename FC::Slot);
  }

  /// The lines of the members the one-writer-per-hot-line rule places;
  /// "telemetry" spans every counter from the front end's
  /// serialized_updates_ to handoffs_.
  template <typename FC>
  static std::vector<Member> members(const FC& fc) {
    const LineSpan first = lines_of(fc.serialized_updates_);
    const LineSpan last = lines_of(fc.handoffs_);
    return {{"slots_", lines_of(fc.slots_)},
            {"lock_", lines_of(fc.lock_)},
            {"value_", lines_of(fc.value_)},
            {"served_", lines_of(fc.served_)},
            {"telemetry", {first.first, last.last}}};
  }
};

// Test-only peer: the reader slots of a BasicRwLock — which one the
// calling thread counts itself on, and the lines each occupies.
struct RwLockTestPeer {
  /// The index of the slot the calling thread's read sections use.
  template <typename Lock>
  static unsigned this_thread_slot(Lock& l) {
    const auto* mine = &l.my_slot();
    for (unsigned i = 0; i < Lock::kReaderSlots; ++i) {
      if (&l.slots_[i].count == mine) return i;
    }
    ADD_FAILURE() << "my_slot() is not one of the reader slots";
    return 0;
  }
  template <typename Lock>
  static LineSpan slot(const Lock& l, unsigned i) {
    return lines_of(l.slots_[i].count);
  }
  /// The lines of the members other than the slots.
  template <typename Lock>
  static std::vector<Member> members(const Lock& l) {
    return {{"backend_", lines_of(l.backend_)},
            {"writer_", lines_of(l.writer_)}};
  }
};

}  // namespace krs::runtime
