// The software combining tree: the §6 "virtual tree embedded in the
// interconnection network", realized in shared memory with the kernel
// taken out of the loop. Every node transition is a CAS on one packed
// status word, waiting is local spinning through the WaitPolicy seam, and
// no mutex or condition variable appears anywhere on the operation path.
//
// MappingCombiningTree<M> is the general §4.2 mechanism. Node slots hold
// ENCODED MAPPINGS of a semigroup family M (core::CombinableMapping): a
// second arrival deposits its mapping g, the first folds it in with
// compose(f, g) on the way up, the root applies the combined mapping, and
// decombination on the way down answers the second with ⟨id2, f(val)⟩ —
// the first's accumulated mapping applied to the prior value, exactly the
// paper's reply rule. Because composition may DECLINE (try_compose →
// nullopt: Möbius overflow, cross-family core::AnyRmw), a declined second
// is served individually at the root during the first's distribute phase
// — §7's "partial combining is always correct" realized in the tree.
// CombiningBackend (combining_backend.hpp) serves every RmwBackend cell
// through one of these trees over core::AnyRmw.
//
// The tree is the meeting protocol behind the hardware-first front end
// (hardware_first.hpp), which owns the value word, the direct CAS,
// update() and read(). An operation whose direct CAS lost enters the tree
// and runs the classic four-phase combining protocol (precombine /
// combine / operate / distribute) of Yew–Tzeng–Lawrie and Herlihy–Shavit,
// with each node run as a word-sized state machine in the style of
// Goodman-style combining words: second arrivals deposit their mapping in
// a per-node slot and watch its status word until the distributed result
// lands. The root applies with the front end's CAS loop on the value word.
//
// Node status word (64 bits):
//
//   [63 ............. 3] [2..0]
//    generation count     status tag
//
// Tags: Idle, First (a first arrival passed through, climbing),
// FirstLocked (the first came back in its combine phase and closed the
// node against late seconds), SecondPending (a second engaged, mapping in
// flight), SecondReady (mapping deposited), SecondCombined (the first
// inspected the mapping; reply owed — whether composition succeeded or
// declined is a first-owned flag off the status word), Result (reply
// delivered), Root (the root's word, which never changes: the root value
// itself is the front end's value word). The generation count increments
// on every reset to Idle, so a stalled CAS from a previous occupancy of
// the node can never succeed against a later one (ABA).
//
// Protocol per operation (slot s, mapping f) whose direct CAS lost:
//   1. precombine — climb from the leaf while CAS Idle→First succeeds;
//      CAS First→SecondPending stops the climb (we are the second there);
//      the root always stops the climb. Every op whose climb stopped then
//      waits out the collision window, kCollisionWindowRounds wait
//      rounds, still holding its First claims: the top first of its path
//      before it combines, a second before it deposits. A climber that
//      reaches the path meanwhile engages as a second and is folded in
//      phase 2; the top first stays off the root word it just collided
//      on, and a second stays off its first, which is waiting out its own
//      window (the §4 switch queue, where a collided request waits to
//      meet a later one).
//   2. combine — re-walk the path: CAS First→FirstLocked passes through
//      (no partner), SecondReady folds the deposited mapping in with
//      compose(first, second) — or records a decline.
//   3. operate — at the root, apply with a CAS loop on the value word; at
//      a SecondPending node, deposit the combined mapping (store + release
//      tag flip) and watch the status word for the Result tag: a watching
//      wait, so it ends on the pause the reply lands.
//   4. distribute — walk back down: FirstLocked resets to Idle(gen+1);
//      SecondCombined receives result = first_map(prior) — exactly
//      ⟨id2, f(val)⟩ — or, if composition declined, the second's mapping
//      is applied at the root now and the second receives that prior;
//      either way the node flips to Result, the waiting second picks the
//      value up and resets the node.
//
// The Instrument policy publishes the tree's happens-before edges: an
// operation acquires the tree's history on entry and releases its own on
// exit, so operations separated in real time are ordered for the race
// detector while overlapping ones stay unordered.
//
// See docs/PERFORMANCE.md for the encoding walkthrough, the collision
// window's measurements, and the backoff strategy.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "analysis/instrument.hpp"
#include "core/rmw.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/hardware_first.hpp"
#include "runtime/wait_policy.hpp"
#include "util/assert.hpp"
#include "util/bits.hpp"

namespace krs::runtime {

/// Partial-combining telemetry (§7): how much of the tree's traffic
/// actually folded on the way up, and how much reached the root. Without
/// the declined count, a mixed-family workload that silently stops
/// combining (every try_compose declining) is indistinguishable from a
/// perfectly-combining one in the value stream — both are correct; only
/// the cost differs. `ops` = root applications + folded seconds, and
/// `direct_applies` is the part of `root_applies` the direct CAS served.
struct CombiningTreeStats : HardwareFirstStats {
  std::uint64_t folds = 0;          ///< successful try_compose folds
  std::uint64_t declined_folds = 0; ///< cross-family / overflow declines
  std::uint64_t root_applies = 0;   ///< operations served at the root

  /// Fraction of operations absorbed by a fold below the root (§4.2's
  /// win).
  [[nodiscard]] double combine_rate() const { return per_op(folds); }
  /// Fraction applied at the root, directly or after a climb; (1 -
  /// combine_rate) by construction. Near 1.0 is the normal reading when
  /// operations rarely collide (most land with the direct CAS); a
  /// combining regression shows in declined_folds, not here.
  [[nodiscard]] double served_at_root_fraction() const {
    return per_op(root_applies);
  }
};

template <core::CombinableMapping M,
          typename Instrument = analysis::DefaultInstrument,
          WaitPolicy Policy = SpinYieldWait>
class MappingCombiningTree
    : public HardwareFirst<MappingCombiningTree<M, Instrument, Policy>, M,
                           Instrument> {
  using Front = HardwareFirst<MappingCombiningTree, M, Instrument>;
  friend Front;
  using V = typename Front::value_type;
  using Front::nslots_;

 public:
  using typename Front::WaveOp;

  /// Wait rounds every climber spends between its climb and its combine
  /// phase (the collision window): 1+2+…+16 pauses under every shipped
  /// policy. On a 4-CPU x86-64 host krs-bench hot_tree ran 22M ops/s
  /// without the window, 26M with it for the top first alone, and 29M
  /// with it for seconds too, whose reply wait ends on the pause the
  /// reply lands (docs/PERFORMANCE.md §1, "The collision window" and
  /// "Watched replies and a window for every climber").
  static constexpr unsigned kCollisionWindowRounds = 5;
  static_assert(inside_spin_grace(kCollisionWindowRounds),
                "a collision window round must never yield or park");

  /// `width`: requested slot capacity, rounded up internally to a power of
  /// two ≥ 2 (the heap layout needs it; callers sized to odd core counts
  /// need not care). slots() is the ROUNDED count; slots 2i and 2i+1
  /// share a leaf. A leaf shared by more than two threads degrades to
  /// local waiting at that leaf.
  explicit MappingCombiningTree(unsigned width, V initial = V{})
      : Front(static_cast<unsigned>(util::ceil_pow2(std::max(2u, width))),
              initial),
        nodes_(nslots_),
        direct_applies_(nslots_) {
    nodes_[kRootIndex].status.store(kRootWord, std::memory_order_relaxed);
  }

  /// Aggregate fold/decline/root counters across all nodes and slots.
  /// Counters are relaxed, so a concurrent snapshot is approximate;
  /// quiesce first for exact accounting (then ops == root_applies + folds
  /// holds exactly: every fetch_rmw operation either folded into a partner
  /// below the root or was applied at the root — by the direct CAS, after
  /// a climb, or, for a declined second, by distribute()'s own root
  /// application).
  [[nodiscard]] CombiningTreeStats stats() const {
    CombiningTreeStats s;
    this->front_stats(s);
    for (const Node& nd : nodes_) {
      s.folds += nd.folds.load(std::memory_order_relaxed);
      s.declined_folds += nd.declined_folds.load(std::memory_order_relaxed);
    }
    s.root_applies =
        root_applies_.load(std::memory_order_relaxed) + s.direct_applies;
    s.ops = s.root_applies + s.folds;
    return s;
  }

  /// Declined try_compose folds at one node (heap index), for tests and
  /// per-node hot-spot attribution.
  [[nodiscard]] std::uint64_t declined_folds_at(unsigned node) const {
    KRS_EXPECTS(node < nodes_.size());
    return nodes_[node].declined_folds.load(std::memory_order_relaxed);
  }

  // ---- deterministic batch surface ------------------------------------------

  /// Drive every wave[i] through the full four-phase protocol from ONE
  /// caller, interleaved the way a simultaneous round would run, and
  /// return the priors in wave order. Slots within one wave must be
  /// DISTINCT. A wave never takes the direct path: it models a round in
  /// which every operation's CAS collided. The caller must be the only
  /// thread using the tree. Fold/root-apply counts after a wave sequence
  /// are a pure function of that sequence — this is
  /// the deterministic measurement surface the contention profiler drives
  /// (the threaded path's combine rate depends on the host scheduler,
  /// useless on a 1-CPU CI box).
  ///
  /// `on_op(i)` fires each time processing switches to wave[i], BEFORE
  /// any of its node/root traffic — the hook the profiler uses to retag
  /// the virtual thread id per operation (analysis::set_profile_tid).
  ///
  /// Scheduling: precombine climbs run in wave order; then each
  /// operation's combine/operate phase runs in DESCENDING stop-node depth
  /// order, so every second has deposited its mapping before its first
  /// combines through that node (the second's stop is strictly deeper
  /// than its first's); finally pending seconds drain as their replies
  /// land — a dependency forest, so the drain terminates.
  std::vector<V> run_wave(const std::vector<WaveOp>& wave,
                          const std::function<void(std::size_t)>& on_op = {}) {
    this->expect_wave_slots(wave);

    struct Flight {
      unsigned stop = 0;
      unsigned depth = 0;     // of `stop`: root = 0
      unsigned leaf = 0;
      unsigned path_len = 0;  // nodes leaf, leaf/2, ... below `stop`
      M combined{};
      V prior{};
      bool done = false;
    };
    std::vector<Flight> fl(wave.size());

    // Phase 1 for everyone: claim the tree positions.
    for (std::size_t i = 0; i < wave.size(); ++i) {
      if (on_op) on_op(i);
      const unsigned my_leaf = leaf_of(wave[i].slot);
      unsigned node = my_leaf;
      while (precombine(node)) node /= 2;
      fl[i].stop = node;
      fl[i].depth = util::log2_floor(node);
      fl[i].leaf = my_leaf;
      fl[i].path_len = util::log2_floor(my_leaf) - fl[i].depth;
      fl[i].combined = wave[i].op;
    }

    // Phases 2+3, deepest stops first: seconds deposit before their
    // firsts combine through them.
    std::vector<std::size_t> order(wave.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return fl[a].depth > fl[b].depth;
                     });
    for (const std::size_t i : order) {
      if (on_op) on_op(i);
      Flight& f = fl[i];
      for (unsigned d = 0; d < f.path_len; ++d) {
        f.combined = combine(f.leaf >> d, std::move(f.combined));
      }
      if (f.stop == kRootIndex) {
        f.prior = apply_at_root(f.combined);
        distribute_path(f.leaf, f.path_len, f.prior);
        f.done = true;
      } else {
        plant_second(f.stop, std::move(f.combined));
      }
    }

    // Drain the pending seconds as their firsts' distributes cascade.
    for (;;) {
      bool progressed = false;
      bool pending = false;
      for (const std::size_t i : order) {
        Flight& f = fl[i];
        if (f.done) continue;
        if (!result_ready(f.stop)) {
          pending = true;
          continue;
        }
        if (on_op) on_op(i);
        f.prior = take_result(f.stop);
        distribute_path(f.leaf, f.path_len, f.prior);
        f.done = true;
        progressed = true;
      }
      if (!pending) break;
      KRS_ASSERT(progressed && "wave drain stalled");
    }

    std::vector<V> priors(wave.size());
    for (std::size_t i = 0; i < wave.size(); ++i) priors[i] = fl[i].prior;
    return priors;
  }

 private:
  friend struct CombiningTreeTestPeer;

  /// Slot → leaf heap index: slots 2i and 2i+1 share a leaf.
  [[nodiscard]] unsigned leaf_of(unsigned slot) const {
    return nslots_ / 2 + slot / 2;
  }

  // ---- status word encoding -------------------------------------------------
  enum Tag : std::uint64_t {
    kIdle = 0,
    kFirst = 1,
    kFirstLocked = 2,
    kSecondPending = 3,
    kSecondReady = 4,
    kSecondCombined = 5,
    kResult = 6,
    kRoot = 7,
  };
  static constexpr std::uint64_t kTagMask = 0x7;
  static constexpr unsigned kGenShift = 3;
  static constexpr unsigned kRootIndex = 1;
  static constexpr std::uint64_t kRootWord = kRoot;

  static constexpr Tag tag_of(std::uint64_t w) noexcept {
    return static_cast<Tag>(w & kTagMask);
  }
  static constexpr std::uint64_t gen_of(std::uint64_t w) noexcept {
    return w >> kGenShift;
  }
  /// Same generation, new tag.
  static constexpr std::uint64_t retag(std::uint64_t w, Tag t) noexcept {
    return (w & ~kTagMask) | t;
  }
  static constexpr std::uint64_t idle_next_gen(std::uint64_t w) noexcept {
    return (gen_of(w) + 1) << kGenShift | kIdle;
  }

  struct alignas(kCacheLine) Node {
    std::atomic<std::uint64_t> status{kIdle};
    // Besides `status`, the status line carries only words the node's
    // current first writes, each immediately before its own store to
    // `status`: so the handshake moves one line, and the waiting second
    // reads its reply from the line it spins on. `declined` is set in the
    // combine phase and read back by the same thread in distribute;
    // `result` is the second's reply. Telemetry (relaxed; read by stats()
    // snapshots): try_compose outcomes at this node, atomics because
    // successive occupancies are different threads and snapshots race by
    // design.
    V result{};
    bool declined = false;
    std::atomic<std::uint64_t> folds{0};
    std::atomic<std::uint64_t> declined_folds{0};
    // The mapping slots, past the status line: the first writes
    // `first_map`, the second deposits `second_map`; the status word hands
    // ownership over. Two 32-byte core::AnyRmw share one line.
    alignas(kCacheLine) M first_map{};
    M second_map{};
  };

  /// One slot's direct CASes, both words on a line no other slot writes:
  /// the direct path's only write besides the value word stays
  /// uncontended.
  struct alignas(kCacheLine) DirectCounter : SlotCounter {};

  template <typename Self>
  static auto& direct_counter(Self& c, unsigned slot) {
    return c.direct_applies_[slot];
  }

  /// The front end's meet: phases 1–4 for an operation whose direct CAS
  /// lost, with the collision window between precombine and combine. The
  /// protocol already tolerates any delay there (a preempted climber
  /// causes one), so the window changes which ops fold, never a reply's
  /// correctness. Out of line, so the direct path keeps a small frame.
  /// The climb's one copy of `f` is the mapping it carries up: each
  /// combine() moves it in and out, and a second's deposit moves it into
  /// the node.
  [[gnu::noinline]] V meet(unsigned slot, const M& f) {
    const unsigned my_leaf = leaf_of(slot);  // heap index

    // Phase 1: precombine — climb while we are the first to arrive.
    unsigned node = my_leaf;
    while (precombine(node)) node /= 2;
    const unsigned stop = node;

    // The collision window (protocol step 1 above). A leaf that is the
    // root (width 2) has no path to claim and no first to meet, so it
    // has no window.
    if (my_leaf != kRootIndex) {
      Policy pol;
      for (unsigned r = 0; r < kCollisionWindowRounds; ++r) pol.pause();
    }

    // Phase 2: combine — gather mappings deposited by second arrivals on
    // the path my_leaf, my_leaf/2, ... below `stop`.
    unsigned depth = 0;
    M combined = f;
    for (node = my_leaf; node != stop; node /= 2, ++depth) {
      combined = combine(node, std::move(combined));
    }

    // Phase 3: operate — at the root, apply; at a SecondPending node,
    // deposit (the carried mapping moves into the node) and watch for the
    // distributed result.
    const V prior = stop == kRootIndex
                        ? apply_at_root(combined)
                        : deposit_and_await(stop, std::move(combined));

    // Phase 4: distribute results back down our path.
    distribute_path(my_leaf, depth, prior);
    return prior;
  }

  // ---- phase 1 --------------------------------------------------------------

  /// True: keep climbing (we were first); false: stop here (second or root).
  bool precombine(unsigned n) {
    Node& nd = nodes_[n];
    // One wait EPISODE per observed status word: while the node finishes
    // a previous occupancy the backoff deepens, but any status change
    // (new tag or generation) re-arms the schedule — otherwise a thread
    // that waited out one occupancy carries a saturated backoff into the
    // next, independent wait and oversleeps it.
    Policy pol;
    EpisodeWait<Policy> ep(pol);
    for (;;) {
      std::uint64_t w = nd.status.load(std::memory_order_acquire);
      switch (tag_of(w)) {
        case kRoot:
          return false;
        case kIdle:
          Instrument::contended_rmw(&nd.status, KRS_SITE);
          if (nd.status.compare_exchange_weak(w, retag(w, kFirst),
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
            return true;
          }
          break;
        case kFirst:
          // A first arrival is already climbing through here; engage as
          // the second and stop the climb.
          Instrument::contended_rmw(&nd.status, KRS_SITE);
          if (nd.status.compare_exchange_weak(w, retag(w, kSecondPending),
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
            return false;
          }
          break;
        default:
          // Node still finishing a previous operation; wait locally.
          ep.observe_and_pause(w);
      }
    }
  }

  // ---- phase 2 --------------------------------------------------------------

  /// Called by the FIRST thread on its way up: fold in the second's
  /// mapping if one arrived (or record that composition declined),
  /// closing the node against late seconds.
  M combine(unsigned n, M c) {
    Node& nd = nodes_[n];
    Policy pol;
    for (;;) {
      std::uint64_t w = nd.status.load(std::memory_order_acquire);
      switch (tag_of(w)) {
        case kFirst:
          if (nd.status.compare_exchange_weak(w, retag(w, kFirstLocked),
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
            return c;  // nobody combined here
          }
          break;
        case kSecondPending:
          pol.pause();  // second engaged; its mapping is still in flight
          break;
        case kSecondReady: {
          // The acquire load above synchronized with the deposit. Record
          // the mapping that arrived at this node for the distribute
          // phase, then fold: first's operations precede second's, so the
          // forwarded mapping is compose(first, second). A declined
          // composition (nullopt) leaves the second's mapping parked in
          // the node; distribute() will serve it at the root — partial
          // combining, always correct (§7).
          auto folded = try_compose(c, nd.second_map);
          nd.first_map = std::move(c);
          nd.declined = !folded.has_value();
          if (nd.declined) {
            nd.declined_folds.fetch_add(1, std::memory_order_relaxed);
          } else {
            nd.folds.fetch_add(1, std::memory_order_relaxed);
          }
          nd.status.store(retag(w, kSecondCombined),
                          std::memory_order_relaxed);
          if (folded) return *std::move(folded);
          return nd.first_map;
        }
        default:
          KRS_ASSERT(false && "unexpected combine status");
          return c;
      }
    }
  }

  // ---- phase 3 --------------------------------------------------------------

  /// Root case: apply the combined mapping to the value word with the
  /// front end's CAS loop.
  V apply_at_root(const M& c) {
    Instrument::contended_rmw(&this->value_, KRS_SITE);
    const V prior = this->cas_value([&c](const V& v) { return c.apply(v); });
    root_applies_.fetch_add(1, std::memory_order_relaxed);
    return prior;
  }

  /// Second case, step 1: deposit the combined mapping for the first to
  /// fold on its way up.
  void plant_second(unsigned n, M c) {
    Node& nd = nodes_[n];
    const std::uint64_t w = nd.status.load(std::memory_order_relaxed);
    KRS_ASSERT(tag_of(w) == kSecondPending);
    nd.second_map = std::move(c);
    nd.status.store(retag(w, kSecondReady), std::memory_order_release);
  }

  /// Second case, step 2: has the first distributed our reply yet?
  [[nodiscard]] bool result_ready(unsigned n) const {
    return tag_of(nodes_[n].status.load(std::memory_order_acquire)) ==
           kResult;
  }

  /// Second case, step 3: pick the reply up and release the node for the
  /// next pair; the new generation kills ABA.
  V take_result(unsigned n) {
    Node& nd = nodes_[n];
    const std::uint64_t w = nd.status.load(std::memory_order_acquire);
    KRS_ASSERT(tag_of(w) == kResult);
    V r = nd.result;
    nd.status.store(idle_next_gen(w), std::memory_order_release);
    return r;
  }

  /// Second case on the threaded path: deposit, then watch this node's
  /// status word until the first distributes our reply.
  V deposit_and_await(unsigned n, M c) {
    plant_second(n, std::move(c));
    // Watching rounds on a handoff: only our first writes the reply. The
    // status word is 64-bit (generation-counted), not addressable by a
    // parking policy's 32-bit wait word, so a park round is a timed sleep.
    const auto ready = [this, n] { return result_ready(n); };
    Policy pol;
    while (!ready()) pol.watch_until(ready);
    return take_result(n);
  }

  // ---- phase 4 --------------------------------------------------------------

  /// Called by the FIRST thread on its way down with the prior value of
  /// everything combined below this node's subtree position.
  void distribute(unsigned n, const V& prior) {
    Node& nd = nodes_[n];
    const std::uint64_t w = nd.status.load(std::memory_order_relaxed);
    switch (tag_of(w)) {
      case kFirstLocked:
        // Nobody combined here: release the node.
        nd.status.store(idle_next_gen(w), std::memory_order_release);
        break;
      case kSecondCombined:
        if (nd.declined) {
          // Composition declined at this node: the second's mapping never
          // traveled with ours. Serve it individually at the root now —
          // it serializes immediately after everything we combined.
          nd.result = apply_at_root(nd.second_map);
        } else {
          // The second's reply: the first's accumulated mapping applied
          // to the prior — the decombination rule ⟨id2, f(val)⟩.
          nd.result = nd.first_map.apply(prior);
        }
        nd.status.store(retag(w, kResult), std::memory_order_release);
        break;
      default:
        KRS_ASSERT(false && "unexpected distribute status");
    }
  }

  /// Phase 4 for a whole path: distribute down the `len` nodes between
  /// `leaf`'s stop and `leaf`, top first (d levels above the leaf is
  /// leaf >> d).
  void distribute_path(unsigned leaf, unsigned len, const V& prior) {
    for (unsigned d = len; d-- > 0;) distribute(leaf >> d, prior);
  }

  // Tree-path root applications (direct ones are counted per slot), on
  // the front end's telemetry line beside serialized_updates_.
  std::atomic<std::uint64_t> root_applies_{0};
  // Read by every climber or direct apply, written by none after
  // construction, on a line of its own past the telemetry.
  alignas(kCacheLine) std::vector<Node> nodes_;  // heap layout, [1..slots)
  std::vector<DirectCounter> direct_applies_;    // per slot
};

}  // namespace krs::runtime
