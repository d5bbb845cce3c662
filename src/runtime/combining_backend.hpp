// The software-combining RMW backend: every cell is a
// MappingCombiningTree<core::AnyRmw>, so concurrent operations on one hot
// word combine pairwise on the way to the root (§4.2) instead of
// serializing on the coherence protocol. This is the "no combining
// hardware, combine in software" point of the paper realized behind the
// same RmwBackend interface the hardware-atomic backend implements — the
// §6 algorithms cannot tell the difference.
//
// Mapping families pushed through the tree:
//
//   fetch_add/or/and/xor → core::FetchTheta<…>   (§5.2, combine = θ on operands)
//   exchange             → core::LssOp::swap      (§5.1, first table)
//   store                → core::LssOp::store     (combines; constant mapping)
//   fetch_rmw(m)         → m verbatim             (any core::AnyRmw; mixed
//                                                  families decline at the
//                                                  node and are served
//                                                  individually — §7)
//   compare_exchange     → update_at_root          (not a tractable mapping:
//                                                  the update branches on
//                                                  the old value, so it
//                                                  never combines: a CAS
//                                                  loop on the root word,
//                                                  linearized against all
//                                                  direct and combined
//                                                  traffic)
//   load                 → tree.read()             (atomic root snapshot)
//
// Every operation served by fetch_rmw first tries one CAS on the root
// word and climbs the tree only when that CAS loses, so an uncontended
// cell costs one hardware CAS and combining starts where traffic
// collides.
//
// Thread→slot assignment uses thread_ordinal() mod width. Slots may
// collide (more threads than width): the tree's per-node state machine
// admits at most a first and a second per occupancy and parks later
// arrivals, so collisions cost waiting, never correctness.
#pragma once

#include <algorithm>

#include "analysis/instrument.hpp"
#include "core/any_rmw.hpp"
#include "core/fetch_theta.hpp"
#include "core/load_store_swap.hpp"
#include "runtime/combining_tree.hpp"
#include "runtime/rmw_backend.hpp"
#include "util/bits.hpp"

namespace krs::runtime {

template <typename Instrument = analysis::DefaultInstrument,
          WaitPolicy Policy = SpinYieldWait>
class BasicCombiningBackend {
 public:
  /// `width`: slot capacity of every cell's tree, ≥ 2 — any value works,
  /// including odd core counts (the tree rounds its heap up to a power of
  /// two internally; the thread→slot modulo stays at the requested width
  /// so live slots remain dense). More threads than `width` still work
  /// (slots are shared); sizing width to the expected thread count
  /// maximizes combining.
  explicit BasicCombiningBackend(unsigned width = kDefaultWidth)
      : width_(std::max(2u, width)) {}

  struct Cell {
    Cell(const BasicCombiningBackend& b, Word initial)
        : tree(b.width_, initial) {}
    Cell(const Cell&) = delete;
    Cell& operator=(const Cell&) = delete;

    MappingCombiningTree<core::AnyRmw, Instrument, Policy> tree;
  };

  Word fetch_add(Cell& c, Word v) const {
    return c.tree.fetch_rmw(slot(), core::AnyRmw(core::FetchAdd(v)));
  }
  Word fetch_or(Cell& c, Word v) const {
    return c.tree.fetch_rmw(slot(), core::AnyRmw(core::FetchOr(v)));
  }
  Word fetch_and(Cell& c, Word v) const {
    return c.tree.fetch_rmw(slot(), core::AnyRmw(core::FetchAnd(v)));
  }
  Word fetch_xor(Cell& c, Word v) const {
    return c.tree.fetch_rmw(slot(), core::AnyRmw(core::FetchXor(v)));
  }
  Word exchange(Cell& c, Word v) const {
    return c.tree.fetch_rmw(slot(), core::AnyRmw(core::LssOp::swap(v)));
  }

  Word fetch_rmw(Cell& c, const core::AnyRmw& m) const {
    return c.tree.fetch_rmw(slot(), m);
  }

  /// Not a tractable mapping (§5: the update must not branch on the old
  /// value), so it cannot combine; a CAS loop at the root, linearized
  /// against every other operation. The loop may call the lambda more
  /// than once, so every call sets `ok`; the call whose CAS lands decides.
  bool compare_exchange(Cell& c, Word& expected, Word desired) const {
    bool ok = false;
    const Word want = expected;
    const Word prior = c.tree.update_at_root([&](Word old) {
      ok = old == want;
      return ok ? desired : old;
    });
    if (!ok) expected = prior;
    return ok;
  }

  Word load(const Cell& c) const { return c.tree.read(); }

  void store(Cell& c, Word v) const {
    c.tree.fetch_rmw(slot(), core::AnyRmw(core::LssOp::store(v)));
  }

  [[nodiscard]] unsigned width() const noexcept { return width_; }

  /// Partial-combining telemetry for one cell's tree (§7): combine_rate,
  /// declined folds, served-at-root fraction. Relaxed snapshot; quiesce
  /// for exact accounting.
  [[nodiscard]] CombiningTreeStats cell_stats(const Cell& c) const {
    return c.tree.stats();
  }

  static constexpr unsigned kDefaultWidth = 16;

 private:
  [[nodiscard]] unsigned slot() const noexcept {
    return thread_ordinal() % width_;
  }

  unsigned width_;
};

using CombiningBackend = BasicCombiningBackend<>;

static_assert(RmwBackend<BasicCombiningBackend<analysis::NoInstrument>>);
static_assert(RmwBackend<CombiningBackend>);

}  // namespace krs::runtime
