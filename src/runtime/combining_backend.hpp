// The software-combining RMW backends: every cell is one software
// combiner, so concurrent operations on one hot word combine instead of
// serializing on the coherence protocol. This is the "no combining
// hardware, combine in software" point of the paper realized behind the
// same RmwBackend interface the hardware-atomic backend implements — the
// §6 algorithms cannot tell the difference. Two combiners plug in:
//
//   * CombiningBackend — a MappingCombiningTree<core::AnyRmw>
//     (combining_tree.hpp): operations combine pairwise on the way to the
//     root (§4.2); mixed families decline at the node and are served
//     individually (§7).
//   * FlatCombiningBackend — a FlatCombiner (flat_combining.hpp): threads
//     publish into per-thread slots and an elected combiner applies each
//     batch with one RMW; batching needs no compose, so mixed families
//     never decline.
//
// Both are built on the hardware-first front end (hardware_first.hpp):
// fetch_rmw combines only when its direct CAS loses. store is the
// constant mapping core::LssOp::store, so it combines too;
// compare_exchange goes through the front end's update(); load is its
// read().
//
// Each operation passes its thread_ordinal() to the combiner unreduced;
// the front end serves it as slot ordinal mod slots(), its only
// reduction. Slots may collide (more threads than slots): both combiners
// serialize a shared slot's occupants, so collisions cost waiting, never
// correctness.
#pragma once

#include <algorithm>

#include "analysis/instrument.hpp"
#include "core/any_rmw.hpp"
#include "core/load_store_swap.hpp"
#include "runtime/combining_tree.hpp"
#include "runtime/flat_combining.hpp"
#include "runtime/rmw_backend.hpp"

namespace krs::runtime {

/// `Combiner` is constructed from (width, initial) and provides
/// fetch_rmw(slot, m), update(f), read() (its HardwareFirst front end)
/// and stats().
template <typename Combiner>
class BasicCombinerBackend
    : public MappingOps<BasicCombinerBackend<Combiner>> {
 public:
  /// `width`: slot capacity of every cell's combiner, ≥ 2 — any value
  /// works, including odd core counts (the tree rounds its slot count up
  /// to a power of two, and the thread→slot modulo is taken at that
  /// count). More threads than slots still work (slots are shared);
  /// sizing width to the expected thread count maximizes combining.
  explicit BasicCombinerBackend(unsigned width = kDefaultWidth)
      : width_(std::max(2u, width)) {}

  struct Cell {
    Cell(const BasicCombinerBackend& b, Word initial)
        : combiner(b.width_, initial) {}
    Cell(const Cell&) = delete;
    Cell& operator=(const Cell&) = delete;

    Combiner combiner;
  };

  Word fetch_rmw(Cell& c, const core::AnyRmw& m) const {
    return c.combiner.fetch_rmw(thread_ordinal(), m);
  }

  /// The update loop may call the lambda more than once, so every call
  /// sets `ok`; the call whose CAS lands decides.
  bool compare_exchange(Cell& c, Word& expected, Word desired) const {
    bool ok = false;
    const Word want = expected;
    const Word prior = c.combiner.update([&](Word old) {
      ok = old == want;
      return ok ? desired : old;
    });
    if (!ok) expected = prior;
    return ok;
  }

  Word load(const Cell& c) const { return c.combiner.read(); }

  void store(Cell& c, Word v) const {
    c.combiner.fetch_rmw(thread_ordinal(),
                         core::AnyRmw(core::LssOp::store(v)));
  }

  [[nodiscard]] unsigned width() const noexcept { return width_; }

  /// One cell's combiner telemetry (§7: combine/decline rates, direct
  /// applies, root or batch traffic). Relaxed snapshot; quiesce for exact
  /// accounting.
  [[nodiscard]] auto cell_stats(const Cell& c) const {
    return c.combiner.stats();
  }

  static constexpr unsigned kDefaultWidth = 16;

 private:
  unsigned width_;
};

template <typename Instrument = analysis::DefaultInstrument,
          WaitPolicy Policy = SpinYieldWait>
using BasicCombiningBackend = BasicCombinerBackend<
    MappingCombiningTree<core::AnyRmw, Instrument, Policy>>;
using CombiningBackend = BasicCombiningBackend<>;

template <typename Instrument = analysis::DefaultInstrument,
          WaitPolicy Policy = SpinYieldWait>
using BasicFlatCombiningBackend =
    BasicCombinerBackend<FlatCombiner<Instrument, Policy>>;
using FlatCombiningBackend = BasicFlatCombiningBackend<>;

static_assert(RmwBackend<BasicCombiningBackend<analysis::NoInstrument>>);
static_assert(RmwBackend<CombiningBackend>);
static_assert(RmwBackend<BasicFlatCombiningBackend<analysis::NoInstrument>>);
static_assert(RmwBackend<FlatCombiningBackend>);

}  // namespace krs::runtime
