// A group lock in the Gottlieb–Lubachevsky–Rudolph coordination style
// ([10]): threads of the SAME group may hold the lock concurrently;
// different groups exclude each other. Readers–writers is the two-group
// special case (group "read" of unbounded width, group "write" used one at
// a time); the §5.6 data-level synchronization automaton is the same idea
// pushed into the memory tag of a single cell.
//
// State is one word: the active group id (or none) and the member count,
// updated with compare-exchange (a combinable fetch-and-add suffices on a
// machine with wide combining; CAS is the portable spelling). The word
// lives in an RmwBackend cell (runtime/rmw_backend.hpp) — under
// AtomicBackend the CAS is the hardware instruction, under
// CombiningBackend it is a CAS loop on the tree's root word, linearized
// against direct and combined traffic.
//
// The Instrument policy (analysis/instrument.hpp) publishes enter/leave as
// acquire/release edges on the lock object — conservative (it also orders
// same-group members against each other), which can mask races between
// members of one group but never invents a false race.
#pragma once

#include <atomic>
#include <cstdint>

#include "analysis/instrument.hpp"
#include "runtime/rmw_backend.hpp"
#include "runtime/wait_policy.hpp"
#include "util/assert.hpp"

namespace krs::runtime {

template <typename Instrument = analysis::DefaultInstrument,
          RmwBackend Backend = AtomicBackend,
          WaitPolicy Policy = SpinYieldWait>
class BasicGroupLock {
 public:
  static constexpr std::uint16_t kMaxGroup = 0xFFFE;

  explicit BasicGroupLock(Backend backend = Backend{})
      : backend_(std::move(backend)), state_(backend_, 0) {}

  BasicGroupLock(const BasicGroupLock&) = delete;
  BasicGroupLock& operator=(const BasicGroupLock&) = delete;

  /// Enter as a member of `group`; blocks while another group is active.
  void enter(std::uint16_t group) {
    KRS_EXPECTS(group <= kMaxGroup);
    const Word tag = static_cast<Word>(group) + 1;
    Policy pol;
    for (;;) {
      Word s = backend_.load(state_);
      const Word active = s >> kCountBits;
      if (active == 0 || active == tag) {
        const Word count = s & kCountMask;
        const Word next = (tag << kCountBits) | (count + 1);
        if (backend_.compare_exchange(state_, s, next)) {
          Instrument::acquire(this);
          return;
        }
        continue;  // contention on our own group: retry immediately
      }
      pol.pause();
    }
  }

  [[nodiscard]] bool try_enter(std::uint16_t group) {
    KRS_EXPECTS(group <= kMaxGroup);
    const Word tag = static_cast<Word>(group) + 1;
    Word s = backend_.load(state_);
    for (;;) {
      const Word active = s >> kCountBits;
      if (active != 0 && active != tag) return false;
      const Word count = s & kCountMask;
      const Word next = (tag << kCountBits) | (count + 1);
      if (backend_.compare_exchange(state_, s, next)) {
        Instrument::acquire(this);
        return true;
      }
    }
  }

  /// Leave; the last member out frees the lock for any group.
  void leave() {
    Instrument::release(this);
    Word s = backend_.load(state_);
    for (;;) {
      const Word count = s & kCountMask;
      KRS_ASSERT(count > 0);
      const Word next = count == 1 ? 0 : (s & ~kCountMask) | (count - 1);
      if (backend_.compare_exchange(state_, s, next)) {
        return;
      }
    }
  }

  /// Active group id, if any (diagnostics; racy).
  [[nodiscard]] std::int32_t active_group() const {
    const Word s = backend_.load(state_);
    const Word active = s >> kCountBits;
    return active == 0 ? -1 : static_cast<std::int32_t>(active - 1);
  }

  [[nodiscard]] std::uint64_t member_count() const {
    return backend_.load(state_) & kCountMask;
  }

 private:
  static constexpr unsigned kCountBits = 48;
  static constexpr Word kCountMask = (Word{1} << kCountBits) - 1;

  Backend backend_;
  typename Backend::Cell state_;
};

using GroupLock = BasicGroupLock<>;

}  // namespace krs::runtime
