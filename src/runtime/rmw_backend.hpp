// The RMW substrate seam: one concept under every §6 algorithm.
//
// The paper's coordination algorithms (queues, barriers, readers-writers,
// semaphores) are written against an abstract machine that executes
// RMW(X, f) atomically — the algorithms do not care whether f is realized
// as a hardware fetch-and-θ instruction, a CAS loop, a software combining
// tree, or a combining network. This header is that seam for the runtime
// layer: an `RmwBackend` owns word-sized shared cells and executes RMW
// operations on them; every primitive in src/runtime is templated over a
// backend and uses only this interface on its hot words.
//
// Interface (concept `RmwBackend`):
//
//   B::Cell            — a shared word owned by the backend. Cells are not
//                        movable (they may wrap std::atomic or a combining
//                        tree); they are constructed in place from
//                        (const B&, initial_value).
//   b.fetch_rmw(c, m)  — the one RMW(X, f) of the paper: any tractable
//                        mapping, as a core::AnyRmw value; returns the
//                        prior value.
//   b.compare_exchange(c, expected, desired)
//                      — conditional store. Not a tractable mapping (the
//                        update depends on comparing the old value), so
//                        backends may serialize it; algorithms that want to
//                        scale under contention should prefer the fetch
//                        paths, which combine.
//   b.load(c), b.store(c, v)
//
// A backend supplies those four and inherits the typed paths
// b.fetch_add/or/and/xor(c, v) and b.exchange(c, v) from MappingOps,
// which maps each onto fetch_rmw through the §5 mapping families — the
// one op → family table of the runtime layer.
//
// Six backends ship:
//
//   * AtomicBackend — hardware fetch-and-θ where the instruction exists
//     (std::atomic fetch_add/fetch_or/...), a CAS loop applying
//     m.apply(old) otherwise. This is the §2 "memory does the RMW" model
//     on a real coherence protocol.
//   * CombiningBackend (combining_backend.hpp) — every cell is a
//     MappingCombiningTree<core::AnyRmw>: an operation first tries one CAS
//     on the root word, and only operations whose CAS collided climb the
//     tree and combine pairwise on the way to the root (§4.2) instead of
//     serializing on the coherence protocol.
//   * FlatCombiningBackend (combining_backend.hpp) — each cell is one
//     FlatCombiner (flat_combining.hpp): threads publish into per-thread
//     slots and an elected combiner serves them in batches.
//   * SimBackend (sim_backend.hpp) — each cell is an address of the
//     cycle-accurate Omega machine, so operations combine in its switches
//     (§4) and cost simulated network cycles.
//   * ShardedBackend<Inner> (sharded_backend.hpp) — stripes a cell across
//     per-shard cells of any inner backend and folds them on read.
//   * LockBackend<Lock> (local_spin_locks.hpp) — one word guarded by one
//     lock (MCS, CLH, parking, ...): the serial baseline.
//
// Instrumentation: backends carry the Instrument policy and publish the
// happens-before edges for their cells — a release before every
// value-publishing operation and an acquire after every value-observing
// one, keyed on the cell address. Primitives built on a backend get their
// cell-mediated HB edges for free and add only their algorithm-specific
// edges (e.g. a barrier's phase transition).
#pragma once

#include <atomic>
#include <concepts>

#include "analysis/instrument.hpp"
#include "core/any_rmw.hpp"
#include "core/types.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/thread_ordinal.hpp"
#include "runtime/wait_policy.hpp"

namespace krs::runtime {

using Word = core::Word;

namespace detail {

/// The general fetch_rmw emulation: retry CAS until the old value we
/// applied f to is the old value we replaced. Every failed CAS pays one
/// backoff pause — a bare retry loop on a hot word is exactly the §1
/// hot-spot storm, and on an oversubscribed host the winner may need our
/// core to retire its store at all. Templated over the atomic and the
/// backoff policy so the pacing contract (exactly one pause per failure,
/// fresh schedule per call) is testable with a scripted flaky atomic.
/// The default pacing is the WaitPolicy seam's SpinYieldWait (bounded
/// exponential backoff); any WaitPolicy (or anything with pause()) drops
/// in.
template <typename AtomicLike, typename Backoff = SpinYieldWait>
Word paced_cas_rmw(AtomicLike& word, const core::AnyRmw& m,
                   Backoff bo = Backoff{}) {
  Word old = word.load(std::memory_order_acquire);
  while (!word.compare_exchange_weak(old, m.apply(old),
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
    bo.pause();
  }
  return old;
}

}  // namespace detail

template <typename B>
concept RmwBackend =
    std::constructible_from<typename B::Cell, const B&, Word> &&
    requires(B& b, typename B::Cell& c, const typename B::Cell& cc, Word v,
             Word& e, const core::AnyRmw& m) {
      { b.fetch_add(c, v) } -> std::same_as<Word>;
      { b.fetch_or(c, v) } -> std::same_as<Word>;
      { b.fetch_and(c, v) } -> std::same_as<Word>;
      { b.fetch_xor(c, v) } -> std::same_as<Word>;
      { b.exchange(c, v) } -> std::same_as<Word>;
      { b.fetch_rmw(c, m) } -> std::same_as<Word>;
      { b.compare_exchange(c, e, v) } -> std::same_as<bool>;
      { b.load(cc) } -> std::same_as<Word>;
      { b.store(c, v) };
    };

/// The typed fetch-and-θ paths, defined once over the backend's fetch_rmw
/// (CRTP: a backend `B` derives from `MappingOps<B>`):
///
///   fetch_add/or/and/xor → core::FetchTheta<…>  (§5.2: combine = θ on operands)
///   exchange             → core::LssOp::swap     (§5.1, first table)
///
/// Each backend decides what fetch_rmw does with the family — a hardware
/// instruction, a combining tree, a publication slot, a network packet, a
/// critical section. The members are templates over the cell type because
/// `Self` is still incomplete where this base is instantiated.
template <typename Self>
class MappingOps {
 public:
  template <typename Cell>
  Word fetch_add(Cell& c, Word v) const {
    return self().fetch_rmw(c, core::AnyRmw(core::FetchAdd(v)));
  }
  template <typename Cell>
  Word fetch_or(Cell& c, Word v) const {
    return self().fetch_rmw(c, core::AnyRmw(core::FetchOr(v)));
  }
  template <typename Cell>
  Word fetch_and(Cell& c, Word v) const {
    return self().fetch_rmw(c, core::AnyRmw(core::FetchAnd(v)));
  }
  template <typename Cell>
  Word fetch_xor(Cell& c, Word v) const {
    return self().fetch_rmw(c, core::AnyRmw(core::FetchXor(v)));
  }
  template <typename Cell>
  Word exchange(Cell& c, Word v) const {
    return self().fetch_rmw(c, core::AnyRmw(core::LssOp::swap(v)));
  }

 private:
  const Self& self() const noexcept { return static_cast<const Self&>(*this); }
};

/// Hardware fetch-and-θ backend: each cell is one std::atomic<Word>.
/// fetch_rmw runs the native RMW instruction where one exists for the
/// family (fetch_add/or/and/xor, exchange for a constant load-store-swap
/// mapping) and a CAS loop applying m.apply(old) otherwise (the §2
/// semantics when the memory has no combining support — correct, but a
/// hot cell serializes). The Policy paces the CAS retries (SpinYieldWait =
/// bounded exponential backoff; FutexWait makes oversubscribed retry
/// storms sleep instead of burning the winner's quantum).
template <typename Instrument = analysis::DefaultInstrument,
          WaitPolicy Policy = SpinYieldWait>
class BasicAtomicBackend
    : public MappingOps<BasicAtomicBackend<Instrument, Policy>> {
 public:
  struct Cell {
    Cell(const BasicAtomicBackend&, Word initial) : word(initial) {}
    Cell(const Cell&) = delete;
    Cell& operator=(const Cell&) = delete;

    alignas(kCacheLine) std::atomic<Word> word;
  };

  Word fetch_rmw(Cell& c, const core::AnyRmw& m) const {
    Instrument::release(&c);
    Instrument::contended_rmw(&c.word, KRS_SITE);
    const Word prior = apply(c.word, m);
    Instrument::acquire(&c);
    return prior;
  }

  bool compare_exchange(Cell& c, Word& expected, Word desired) const {
    Instrument::release(&c);
    Instrument::contended_rmw(&c.word, KRS_SITE);
    bool ok = c.word.compare_exchange_strong(expected, desired,
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire);
    Instrument::acquire(&c);
    return ok;
  }

  Word load(const Cell& c) const {
    Instrument::shared_load(&c.word, KRS_SITE);
    Word v = c.word.load(std::memory_order_acquire);
    Instrument::acquire(&c);
    return v;
  }

  void store(Cell& c, Word v) const {
    Instrument::release(&c);
    Instrument::shared_store(&c.word, KRS_SITE);
    c.word.store(v, std::memory_order_release);
  }

 private:
  /// Hardware has no "fetch-and-f" for an arbitrary mapping, so a family
  /// without an instruction retries CAS until the old value f was applied
  /// to is the old value replaced, paced with a fresh wait-policy episode
  /// per call (detail::paced_cas_rmw): a bare loop here is the §1 hot-spot
  /// storm in miniature.
  static Word apply(std::atomic<Word>& w, const core::AnyRmw& m) {
    constexpr auto order = std::memory_order_acq_rel;
    if (m.holds<core::FetchAdd>()) {
      return w.fetch_add(m.get<core::FetchAdd>().operand(), order);
    }
    if (m.holds<core::FetchOr>()) {
      return w.fetch_or(m.get<core::FetchOr>().operand(), order);
    }
    if (m.holds<core::FetchAnd>()) {
      return w.fetch_and(m.get<core::FetchAnd>().operand(), order);
    }
    if (m.holds<core::FetchXor>()) {
      return w.fetch_xor(m.get<core::FetchXor>().operand(), order);
    }
    if (m.holds<core::LssOp>() && m.get<core::LssOp>().is_constant()) {
      return w.exchange(m.get<core::LssOp>().value(), order);
    }
    return detail::paced_cas_rmw<std::atomic<Word>, Policy>(w, m);
  }
};

using AtomicBackend = BasicAtomicBackend<>;

static_assert(RmwBackend<BasicAtomicBackend<analysis::NoInstrument>>);
static_assert(RmwBackend<AtomicBackend>);

}  // namespace krs::runtime
