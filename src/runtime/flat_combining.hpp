// Flat combining: the publication-list rival to the combining tree.
//
// The paper's tree turns n contended RMWs into O(lg n) local handshakes —
// the right asymptotics for large n. But each handshake is a CAS-mediated
// state-machine transition on its own cache line, so for SMALL n the tree
// pays lg n coherence misses per operation where a single serialization
// point would pay ~1. Flat combining (Hendler–Incze–Shavit–Tzafrir's
// structure, applied here to the §3/§5 fetch-and-θ mapping families) is
// that single point done right. It is the meeting protocol behind the
// hardware-first front end (hardware_first.hpp), which owns the value
// word, the direct CAS, update() and read(); only an operation whose
// direct CAS lost publishes:
//
//  * every thread owns a cache-line-padded PUBLICATION SLOT; to publish it
//    writes its encoded core::AnyRmw mapping into the slot and
//    release-publishes it — one line transfer, no CAS;
//  * a published op first WAITS in its slot for kElectAfterRounds rounds
//    of the wait policy (the election window), where a running combiner
//    can serve it — the analogue of a collided request waiting in a §4
//    switch queue, and it keeps the op off the value word. The rounds
//    WATCH the slot word: a reply that lands mid-round ends the wait on
//    that pause instead of at the round's end;
//  * ONE thread at a time is the COMBINER, elected by a try-lock on a
//    single word (never spun on while held — losers go back to watching
//    their own slot);
//  * the combiner scans the slots, collects every pending mapping into one
//    BATCH and applies it with ONE atomic read-modify-write of the value
//    word (§2's memory module applying a combined request in one step): a
//    hardware fetch_add of the operand sum when every op is a fetch-and-
//    add, else the front end's CAS loop recomputing the chain. Each op's
//    reply is the running prior — exactly the §3 decombination chain
//    ⟨id2, f(val)⟩, computed at one site instead of down a tree path;
//  * after a bounded number of scan passes the combiner releases the lock
//    (HANDOFF), so no thread serves others forever and a continuously
//    loaded cell rotates its combiner.
//
// Under collision the shared-memory traffic concentrates on the
// publication lines (owner↔combiner, pairwise) and the combiner's one RMW
// per batch — the inversion of the §1 hot spot that tools/krs_profile's
// flat wave run demonstrates. Waiting is
// local spinning on the thread's own slot, paced by the WaitPolicy seam
// (runtime/wait_policy.hpp) with watching rounds: the slot word is a
// handoff only the combiner writes, so the owner re-reads it every pause
// of the spin grace. Past the grace SpinYieldWait yields and FutexWait
// parks waiters on their own slot word (the combiner wakes them when the
// reply lands, with bounded park timeouts covering the publish-after-scan
// race). A slot claim waits on a word aliased threads contend for, so its
// rounds stay blind.
//
// FlatCombiningBackend (combining_backend.hpp) wraps the combiner behind
// the RmwBackend concept, so every §6 algorithm runs over it unchanged.
//
// See docs/PERFORMANCE.md for the measured flat-vs-tree crossover and
// when to pick which.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "analysis/instrument.hpp"
#include "core/any_rmw.hpp"
#include "core/fetch_theta.hpp"
#include "core/types.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/hardware_first.hpp"
#include "runtime/wait_policy.hpp"
#include "util/assert.hpp"

namespace krs::runtime {

/// Combiner-side telemetry. `ops` counts direct and published
/// operations; `combined` the published ops served by ANOTHER thread's
/// pass (the flat-combining win: those threads never touched the value
/// word after their lost CAS); `takeovers` successful combiner elections;
/// `passes` publication-list scans; `handoffs` lock releases forced by the
/// pass cap while work was still pending (the anti-starvation path).
/// Every published op is counted in `ops` (and, if a peer served it, in
/// `combined`) by the lock holder's pass that served it, never by its
/// publisher, so the publish path writes no shared counter.
struct FlatCombinerStats : HardwareFirstStats {
  std::uint64_t combined = 0;
  std::uint64_t takeovers = 0;
  std::uint64_t passes = 0;
  std::uint64_t handoffs = 0;

  /// Fraction of operations a peer combiner absorbed.
  [[nodiscard]] double combined_fraction() const { return per_op(combined); }
};

template <typename Instrument = analysis::DefaultInstrument,
          WaitPolicy Policy = SpinYieldWait>
class FlatCombiner
    : public HardwareFirst<FlatCombiner<Instrument, Policy>, core::AnyRmw,
                           Instrument> {
  using Front = HardwareFirst<FlatCombiner, core::AnyRmw, Instrument>;
  friend Front;
  using Front::nslots_;
  using Front::value_;

 public:
  using typename Front::WaveOp;

  static constexpr unsigned kDefaultMaxPasses = 8;

  /// Wait rounds a published op spends in its own slot before its first
  /// try_lock: 1+2+…+32 pauses under every shipped policy, about 1.6 µs
  /// on a 4-CPU x86-64 host. Electing at once sent the loser of a direct
  /// CAS back to the value word within a microsecond to collide again.
  /// On that host krs-bench hot_flat ran 15M ops/s at 0 rounds, 19M at
  /// 5, 23M at 6 and 30M at 7, where p99 was 40% above electing at once
  /// (docs/PERFORMANCE.md §6, "The collision storm").
  static constexpr unsigned kElectAfterRounds = 6;
  static_assert(inside_spin_grace(kElectAfterRounds),
                "an election window round must never yield or park");

  /// `slots`: publication-record count, ≥ 2 — any value, no power-of-two
  /// constraint (there is no heap layout here). Threads may alias onto one
  /// slot (ordinal mod slots, like the tree); the claim CAS serializes
  /// them, costing waiting, never correctness.
  ///
  /// `max_passes`: scan passes one combiner may run before it must release
  /// the lock. 1 = serve one batch and hand off immediately; larger values
  /// amortize the lock word better under sustained load.
  explicit FlatCombiner(unsigned slots, core::Word initial = 0,
                        unsigned max_passes = kDefaultMaxPasses)
      : Front(slots < 2 ? 2 : slots, initial),
        max_passes_(max_passes < 1 ? 1 : max_passes),
        slots_(nslots_) {
    served_.reserve(nslots_);
  }

  /// Address of one publication slot's line, for the same mapping as
  /// value_address().
  [[nodiscard]] const void* slot_address(unsigned slot) const {
    KRS_EXPECTS(slot < nslots_);
    return &slots_[slot].seq;
  }

  /// Relaxed snapshot; quiesce for exact accounting. Then ops ==
  /// direct_applies + the published ops holds exactly, and when every
  /// tenure came from fetch_rmw (each serves its own op once, never as
  /// combined) the published ops == combined + takeovers.
  [[nodiscard]] FlatCombinerStats stats() const {
    FlatCombinerStats st;
    this->front_stats(st);
    st.ops = ops_.load(std::memory_order_relaxed) + st.direct_applies;
    st.combined = combined_.load(std::memory_order_relaxed);
    st.takeovers = takeovers_.load(std::memory_order_relaxed);
    st.passes = passes_.load(std::memory_order_relaxed);
    st.handoffs = handoffs_.load(std::memory_order_relaxed);
    return st;
  }

  // ---- deterministic batch surface ------------------------------------------

  /// Drive one simultaneous round from ONE caller: publish every wave[i],
  /// run combining passes until all are served, pick the replies up in
  /// wave order. A wave never takes the direct path: it models a round in
  /// which every operation's CAS collided. Slots within a wave must be
  /// distinct; the caller must be the only thread using the combiner.
  /// Counter deltas after a wave
  /// sequence are a pure function of that sequence — the deterministic
  /// measurement surface tools/krs_profile drives.
  ///
  /// `on_op(i)` fires before each of wave[i]'s publication and pickup
  /// traffic; the combining pass itself fires on_op(0) first — the wave's
  /// first op models the thread that won the election.
  std::vector<core::Word> run_wave(
      const std::vector<WaveOp>& wave,
      const std::function<void(std::size_t)>& on_op = {}) {
    this->expect_wave_slots(wave);
    Instrument::acquire(this);
    for (std::size_t i = 0; i < wave.size(); ++i) {
      if (on_op) on_op(i);
      publish(wave[i].slot, wave[i].op);
    }
    if (!wave.empty()) {
      if (on_op) on_op(0);
      const bool locked = try_lock();
      KRS_ASSERT(locked && "run_wave requires an otherwise idle combiner");
      combine(nullptr);
      unlock();
    }
    std::vector<core::Word> priors(wave.size());
    for (std::size_t i = 0; i < wave.size(); ++i) {
      if (on_op) on_op(i);
      Slot& s = slots_[wave[i].slot];
      KRS_ASSERT(s.seq.load(std::memory_order_acquire) == kDone);
      priors[i] = s.result;
      s.seq.store(kIdle, std::memory_order_release);
    }
    Instrument::release(this);
    return priors;
  }

 private:
  friend struct FlatCombinerTestPeer;

  // Slot sequence states. Idle → Claimed is the aliased-thread arbitration
  // CAS; Claimed → Pending is the owner's release-publish; Pending → Done
  // is the combiner's release-reply; Done → Idle is the owner's pickup.
  enum Seq : std::uint32_t {
    kIdle = 0,
    kClaimed = 1,
    kPending = 2,
    kDone = 3,
  };

  // One line for the publication (the sequence word, the mapping and the
  // reply), so a publish or a pickup moves one line between the owner and
  // the combiner.
  struct alignas(kCacheLine) Slot {
    std::atomic<std::uint32_t> seq{kIdle};
    core::AnyRmw op{};
    core::Word result = 0;
    // Direct CASes landed by this slot's threads, on a line of their own:
    // the owner counts with a plain store, aliased threads with a
    // fetch_add on the second word (SlotCounter). Beside `seq`, which the
    // combiner's scan reads for every slot, each count would pull the line
    // away from the owner (krs-bench hot_flat lost 21% on a 4-CPU host).
    alignas(kCacheLine) SlotCounter direct;
  };
  static_assert(sizeof(Slot) == 2 * kCacheLine,
                "the publication on one line, the direct counter on another");

  template <typename Self>
  static auto& direct_counter(Self& c, unsigned slot) {
    return c.slots_[slot].direct;
  }

  /// The front end's meet: publish into slot `idx`, wait out the election
  /// window for a peer combiner's reply, then elect this thread to serve
  /// the list. Counts nothing: the pass that serves the op does. Out of
  /// line, so the direct path keeps a small frame.
  [[gnu::noinline]] core::Word meet(unsigned idx, const core::AnyRmw& f) {
    Slot& s = publish(idx, f);
    Policy pol;
    for (unsigned round = 0;; ++round) {
      if (s.seq.load(std::memory_order_acquire) == kDone) break;
      if (round >= kElectAfterRounds && try_lock()) {
        // A peer's pass may have served this op between the kDone check
        // and winning the lock; that pass counted it as combined, so
        // release the lock without a tenure.
        if (s.seq.load(std::memory_order_acquire) == kDone) {
          unlock();
          break;
        }
        combine(&s);
        unlock();
        if constexpr (Policy::kParks) wake_pending();
        break;
      }
      // Local watch on our own slot word, a handoff only a combiner
      // writes: the round ends on the pause the reply lands. Still one
      // call per round, so the election falls after kElectAfterRounds.
      // A combiner flipping the word to kDone wakes a parked waiter; the
      // bounded park timeout re-arms the try_lock election if a handoff
      // left the list unserved.
      pol.watch_while_equal(s.seq, kPending);
    }
    KRS_ASSERT(s.seq.load(std::memory_order_acquire) == kDone);
    const core::Word prior = s.result;
    s.seq.store(kIdle, std::memory_order_release);
    if constexpr (Policy::kParks) Policy::notify_all(s.seq);
    return prior;
  }

  /// Claim slot `idx` (aliased threads wait their turn), write `f` into
  /// it and release-publish it.
  Slot& publish(unsigned idx, const core::AnyRmw& f) {
    Slot& s = slots_[idx];
    Policy pol;
    for (;;) {
      std::uint32_t expect = kIdle;
      if (s.seq.compare_exchange_weak(expect, kClaimed,
                                      std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
        break;
      }
      if (expect != kIdle) {
        // Another thread owns the slot: wait on the value we observed —
        // the owner's pickup (kDone→kIdle) notifies parked claimants.
        pol.wait_while_equal(s.seq, expect);
      } else {
        pol.pause();  // spurious weak-CAS failure
      }
    }
    s.op = f;
    Instrument::shared_store(&s.seq, KRS_SITE);
    s.seq.store(kPending, std::memory_order_release);
    return s;
  }

  [[nodiscard]] bool try_lock() {
    std::uint32_t expect = 0;
    return lock_.compare_exchange_strong(expect, 1,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed);
  }

  void unlock() {
    lock_.store(0, std::memory_order_release);
    if constexpr (Policy::kParks) Policy::notify_all(lock_);
  }

  /// Parking policies only: after releasing the lock, wake the owners of
  /// any slots still pending (a pass-cap handoff can leave published ops
  /// unserved) so a parked owner re-arms its combiner election promptly
  /// instead of riding out its park timeout.
  void wake_pending() {
    for (Slot& s : slots_) {
      if (s.seq.load(std::memory_order_acquire) == kPending) {
        Policy::notify_all(s.seq);
      }
    }
  }

  /// Increment for counters mutated ONLY while the combiner lock is held:
  /// writers are mutually excluded, so a relaxed load+store (no RMW, no
  /// lock prefix) counts exactly; stats() snapshots race benignly.
  static void bump(std::atomic<std::uint64_t>& counter, std::uint64_t by = 1) {
    counter.store(counter.load(std::memory_order_relaxed) + by,
                  std::memory_order_relaxed);
  }

  /// One publication-list scan under the lock: collect every pending
  /// slot, then apply the batch, in slot order, with ONE atomic
  /// read-modify-write of the value word. Each served op's reply is the
  /// running prior — the §3 decombination chain evaluated at one site.
  /// An all-fetch_add batch is one hardware fetch_add of the operand sum
  /// (it cannot lose to a concurrent direct CAS); any other batch goes
  /// through the front end's CAS loop, recomputing the chain from the
  /// value it lost to.
  ///
  /// Replies publish only after the RMW: a waiter that observes its reply
  /// therefore also observes a value_ that already includes its own op —
  /// the same order the tree enforces by applying at the root before
  /// distributing down — so a read() after a completed fetch_rmw can
  /// never miss that op (the rw-lock's reader-increment-then-writer-check
  /// handshake depends on exactly this).
  ///
  /// The pass also counts what it served, with plain stores (bump): every
  /// served op in `ops`, and every one but `own` in `combined`. A null
  /// `own` (run_wave: one caller publishes the whole wave) counts no op
  /// as combined.
  unsigned serve_pass(const Slot* own) {
    Instrument::contended_rmw(&value_, KRS_SITE);
    served_.clear();
    bool all_adds = true;
    bool own_served = false;
    core::Word sum = 0;
    for (unsigned i = 0; i < nslots_; ++i) {
      Slot& s = slots_[i];
      Instrument::shared_load(&s.seq, KRS_SITE);
      if (s.seq.load(std::memory_order_acquire) != kPending) continue;
      served_.push_back(i);
      own_served = own_served || &s == own;
      const core::AnyRmw& op = s.op;
      if (all_adds && op.holds<core::FetchAdd>()) {
        sum += op.get<core::FetchAdd>().operand();
      } else {
        all_adds = false;
      }
    }
    if (!served_.empty()) {
      if (all_adds) {
        chain(value_.fetch_add(sum, std::memory_order_acq_rel));
      } else {
        this->cas_value([this](core::Word v) { return chain(v); });
      }
      for (const unsigned i : served_) {
        Slot& s = slots_[i];
        Instrument::shared_store(&s.seq, KRS_SITE);
        s.seq.store(kDone, std::memory_order_release);
        if constexpr (Policy::kParks) Policy::notify_all(s.seq);
      }
      bump(ops_, served_.size());
      if (own != nullptr) bump(combined_, served_.size() - own_served);
    }
    bump(passes_);
    return static_cast<unsigned>(served_.size());
  }

  /// Hand each collected op the running prior from `v` and return the
  /// value after the whole batch.
  core::Word chain(core::Word v) {
    for (const unsigned i : served_) {
      Slot& s = slots_[i];
      s.result = v;
      v = s.op.apply(v);
    }
    return v;
  }

  /// The combiner's tenure, lock held: scan until either nothing is
  /// pending or the pass cap forces a handoff. `own` (may be null) is the
  /// caller's slot: the first pass always serves it, so a combiner never
  /// exits with its own op unserved.
  void combine(const Slot* own) {
    bump(takeovers_);
    unsigned passes = 0;
    for (;;) {
      const unsigned served = serve_pass(own);
      ++passes;
      if (passes >= max_passes_ || served == 0) break;
    }
    KRS_ASSERT(own == nullptr ||
               own->seq.load(std::memory_order_relaxed) == kDone);
    if (passes >= max_passes_) {
      for (const Slot& s : slots_) {
        if (s.seq.load(std::memory_order_relaxed) == kPending) {
          bump(handoffs_);
          break;
        }
      }
    }
  }

  // Telemetry (relaxed; snapshots race with operations by design),
  // continuing the front end's telemetry line: a counter beside value_
  // would turn every published op into a second write to the hot line.
  // All are written only by the lock holder, so publishers never write
  // this line.
  std::atomic<std::uint64_t> ops_{0};  ///< published
  std::atomic<std::uint64_t> combined_{0};
  std::atomic<std::uint64_t> takeovers_{0};
  std::atomic<std::uint64_t> passes_{0};
  std::atomic<std::uint64_t> handoffs_{0};
  // Three more lines, one role each (cacheline.hpp's one-writer-per-hot-
  // line rule). First, the line every operation reads and none writes
  // after construction.
  alignas(kCacheLine) unsigned max_passes_;
  std::vector<Slot> slots_;
  // Waiters retry try_lock on lock_'s line, so the combiner's scratch
  // stays off it: beside lock_, krs-bench hot_flat p99 rose about 20% on
  // a 4-CPU host.
  alignas(kCacheLine) std::atomic<std::uint32_t> lock_{0};
  /// serve_pass scratch, on a line only the lock-holding combiner touches:
  /// every pass rewrites it, so beside value_ or the slots_ header it
  /// would pull those lines away from the CASers.
  alignas(kCacheLine) std::vector<unsigned> served_;
};

}  // namespace krs::runtime
