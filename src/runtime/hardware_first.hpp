// The hardware-first front end both software combiners are built on
// (combining_tree.hpp, flat_combining.hpp). §7: any subset of requests may
// skip combining without losing correctness. So an operation first tries
// ONE compare-exchange of f(v) for v on the value word and returns v if it
// lands. Only an operation whose CAS lost (traffic that actually collided)
// goes on to the combiner's meeting protocol, its `meet`: the tree's
// climb, collision window, combine, root apply and distribute, or the flat
// combiner's publish, election window, serve and reply. Combining starts
// where traffic collides, and an uncontended operation costs one hardware
// CAS.
//
// The direct path is a load of the value word, an inline apply of the
// mapping (core::AnyRmw's index dispatch), one CAS and, when it lands,
// one plain store to the slot owner's counter (SlotCounter), with no call
// between the load and the CAS. The slot is reduced mod slots() before
// the load, with a division only for a slot at or above the count (the
// caller's slot is an inline thread-local load, thread_ordinal()). Every
// instruction between reading the hot word and the CAS widens the window
// in which another core can take the line away;
// tools/check_direct_path.sh reads the machine code. fetch_rmw is out of
// line: inlined into a caller's loop, the mapping temporaries widen the
// caller's frame, and its deepest call (the first one, which binds
// library symbols lazily) can then touch one more stack page.
//
// Every write of the value word is an atomic read-modify-write: the
// direct CAS, a combiner's own RMW (the flat batch's hardware fetch_add),
// or the CAS loop cas_value() that serves every other write (update(),
// the tree's root applies, the flat combiner's non-add batch). None can
// overwrite a concurrent one, so every operation linearizes at a
// modification of the value word, and read() is a bare acquire load.
//
// compare_exchange is not a tractable mapping (the update branches on the
// old value), so it never combines: update() applies it with the CAS loop,
// counted in serialized_updates and not in ops.
//
// A combiner derives from HardwareFirst<Combiner, M, Instrument> and
// provides, to the front end only (a friend):
//   V meet(unsigned slot, const M& f)            the collided op's path;
//   static auto& direct_counter(Self& c, slot)   one slot's SlotCounter of
//                                                direct CASes, const if c
//                                                is.
#pragma once

#include <atomic>
#include <concepts>
#include <cstdint>
#include <vector>

#include "analysis/instrument.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/thread_ordinal.hpp"
#include "util/assert.hpp"

namespace krs::runtime {

/// What every hardware-first combiner counts. `ops` counts completed
/// fetch_rmw operations, direct and collided; `direct_applies` the subset
/// whose first CAS on the value word landed; `serialized_updates` the
/// update() calls, which are in neither.
struct HardwareFirstStats {
  std::uint64_t ops = 0;
  std::uint64_t direct_applies = 0;
  std::uint64_t serialized_updates = 0;

  /// Fraction applied by the direct CAS, never meeting.
  [[nodiscard]] double direct_rate() const { return per_op(direct_applies); }

  /// `n` / ops, or 0 when nothing ran.
  [[nodiscard]] double per_op(std::uint64_t n) const {
    return ops > 0 ? static_cast<double>(n) / static_cast<double>(ops) : 0.0;
  }
};

template <typename Combiner, typename M, typename Instrument>
class HardwareFirst {
  using V = typename M::value_type;

 public:
  using value_type = V;

  /// Atomically value ← f(value), returning the prior value: the direct
  /// CAS, and the combiner's meet if it lost. Any slot is served as slot
  /// mod slots(); threads may share a slot, costing waiting, never
  /// correctness.
  [[gnu::noinline]] V fetch_rmw(unsigned slot, const M& f) {
    Instrument::acquire(this);
    Instrument::contended_rmw(&value_, KRS_SITE);
    const unsigned idx = slot_of(slot, nslots_);
    V cur = value_.load(std::memory_order_relaxed);
    if (value_.compare_exchange_strong(cur, f.apply(cur),
                                       std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
      Combiner::direct_counter(self(), idx).add_one(idx);
    } else {
      cur = self().meet(idx, f);
    }
    Instrument::release(this);
    return cur;
  }

  /// Escape hatch for updates that are NOT tractable mappings
  /// (compare-and-swap, arbitrary θ): applies `f` to the value word with
  /// the CAS loop and returns the prior value. `f` may run more than once
  /// (a lost CAS re-reads the value), so the value it returns must depend
  /// only on its argument. Lock-free; linearizes with every other
  /// operation, combines with none.
  template <std::invocable<V> F>
  V update(F&& f) {
    Instrument::acquire(this);
    Instrument::contended_rmw(&value_, KRS_SITE);
    const V prior = cas_value(f);
    serialized_updates_.fetch_add(1, std::memory_order_relaxed);
    Instrument::release(this);
    return prior;
  }

  /// Atomic snapshot of the current value: a bare acquire load, coherent
  /// and per-reader monotone because only atomic RMWs modify the word.
  [[nodiscard]] V read() const {
    Instrument::shared_load(&value_, KRS_SITE);
    return value_.load(std::memory_order_acquire);
  }

  /// The slot count: thread slots are 0..slots()-1.
  [[nodiscard]] unsigned slots() const noexcept { return nslots_; }

  /// Address of the value word: what the Instrument policy's
  /// contended_rmw hook reports for value-word traffic, so a profiler
  /// caller (tools/krs_profile) can map "the hot line" back to this
  /// combiner.
  [[nodiscard]] const void* value_address() const noexcept { return &value_; }

  /// One operation of a single-caller wave (run_wave): `slot` plays the
  /// role a thread's slot plays on the threaded path.
  struct WaveOp {
    unsigned slot;
    M op;
  };

 protected:
  HardwareFirst(unsigned slots, V initial) : nslots_(slots), value_(initial) {}

  /// value ← next(value) with a CAS loop; returns the prior value. `next`
  /// runs once per attempt.
  template <typename F>
  V cas_value(F&& next) {
    V prior = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(prior, next(prior),
                                         std::memory_order_acq_rel,
                                         std::memory_order_relaxed)) {
    }
    return prior;
  }

  /// A wave models one simultaneous round of at most slots() threads, one
  /// per slot: its slots must be in range and distinct.
  void expect_wave_slots(const std::vector<WaveOp>& wave) const {
    std::vector<bool> seen(nslots_, false);
    for (const WaveOp& o : wave) {
      KRS_EXPECTS(o.slot < nslots_ && !seen[o.slot] &&
                  "wave slots must be distinct");
      seen[o.slot] = true;
    }
  }

  /// Adds the direct applies and serialized updates to `s`; the combiner
  /// counts `ops`. Relaxed: quiesce for exact accounting.
  void front_stats(HardwareFirstStats& s) const {
    for (unsigned i = 0; i < nslots_; ++i) {
      s.direct_applies += Combiner::direct_counter(self(), i).total();
    }
    s.serialized_updates = serialized_updates_.load(std::memory_order_relaxed);
  }

  // Three lines, one role each (cacheline.hpp's one-writer-per-hot-line
  // rule). The slot count, read by every operation and written by none.
  unsigned nslots_;
  // The value word alone on the line every direct CAS writes.
  alignas(kCacheLine) std::atomic<V> value_;
  // Telemetry, off the value word's line: a counter there would turn
  // every update() into a second write to the hot line. A combiner's own
  // counters follow on this line (they fill the tail padding).
  alignas(kCacheLine) std::atomic<std::uint64_t> serialized_updates_{0};

 private:
  Combiner& self() { return static_cast<Combiner&>(*this); }
  const Combiner& self() const { return static_cast<const Combiner&>(*this); }
};

}  // namespace krs::runtime
