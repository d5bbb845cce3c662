// §5.6 — General data-level synchronization.
//
// A data-level synchronization scheme is an automaton A = ⟨Φ, S, δ⟩: every
// shared variable is tagged with a state s ∈ S, and an operation is guarded
// by a set of states V ⊆ S in which it may execute; executing it also moves
// the tag through δ. A failed operation (s ∉ V) leaves the cell unchanged
// and is reported to the issuer as a negative acknowledgment — which the
// issuer detects from the old state carried by the reply.
//
// Modeled as *total* mappings on (value, state) cells: per state, the
// mapping either stores a value or keeps the old one, and names a successor
// state. Failure is the identity entry. Totality makes composition closed,
// and the per-state table realizes the paper's bound directly: a combined
// request carries at most |S| distinct store values (Section 5.6's best
// possible uniform bound, attained by the store-if-state=s family — see
// tests). `size_bound()` is that bound in wire bytes; a switch whose
// message format is narrower than the bound declines compositions that
// would overflow it (`try_compose` → nullopt), and §7 partial combining
// serves the declined request individually at the root.
//
// Two realizations live here:
//
//   * DlsOp<N>  — the compile-time-sized family over DlsCell (value word +
//     state tag), used by the algebra tests and the simulated machine.
//   * DlsWordOp — the runtime-sized family over a WORD-PACKED cell (state
//     in the low 4 bits, value in the upper 60): the encoding that lets
//     every RmwBackend substrate serve guarded operations through its
//     ordinary word-valued fetch_rmw path (core::AnyRmw holds it as an
//     alternative). It is stored in a 24-byte wire form with ONE inline
//     store value, so a composition that needs a second distinct value
//     declines and §7 serves it at the root; DlsOp<N> keeps the full |S|
//     bound. Path expressions (Campbell–Habermann) compile to these
//     automata — see core/path_expr.hpp and examples/path_expression.cpp.
//
// The full/empty family of §5.5 is the |S| = 2 special case; tests exhibit
// the isomorphism.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "core/rmw.hpp"
#include "core/types.hpp"
#include "util/assert.hpp"

namespace krs::core {

/// A tagged cell: data word plus automaton state.
struct DlsCell {
  Word value = 0;
  std::uint8_t state = 0;

  friend constexpr bool operator==(const DlsCell&, const DlsCell&) = default;
};

inline std::string to_string(const DlsCell& c) {
  std::string s = "(";
  s += std::to_string(c.value);
  s += ",s";
  s += std::to_string(c.state);
  s += ')';
  return s;
}

// --- word packing -------------------------------------------------------------
//
// The runtime substrates own WORD cells, so the tagged cell rides in one
// machine word: state tag in the low kDlsStateBits bits, value in the rest.
// The §5.6 tractability cap (|S| ≤ 16) is exactly what makes the tag fit.

inline constexpr unsigned kDlsStateBits = 4;
inline constexpr Word kDlsStateMask = (Word{1} << kDlsStateBits) - 1;
/// Packable values are bounded: the tag costs kDlsStateBits of the word.
inline constexpr Word kDlsValueLimit = Word{1} << (64 - kDlsStateBits);

[[nodiscard]] constexpr Word dls_pack(const DlsCell& c) noexcept {
  return (c.value << kDlsStateBits) | (c.state & kDlsStateMask);
}

[[nodiscard]] constexpr DlsCell dls_unpack(Word w) noexcept {
  return DlsCell{w >> kDlsStateBits,
                 static_cast<std::uint8_t>(w & kDlsStateMask)};
}

namespace detail {

/// Bits needed to index n things (0 for n ≤ 1).
[[nodiscard]] constexpr unsigned dls_index_bits(unsigned n) noexcept {
  unsigned bits = 0;
  while ((1u << bits) < n) ++bits;
  return bits;
}

/// The wire size of an |S|-state table carrying `distinct` store values:
/// per state 1 store flag bit + a next-state index + a store-slot index
/// (both ⌈lg |S|⌉ bits), plus the guard bitmask (1 bit per state — the
/// success predicate now composes, so it travels with the mapping), plus
/// the distinct store values themselves, one word each.
[[nodiscard]] constexpr std::size_t dls_encoded_bytes(
    unsigned nstates, unsigned distinct) noexcept {
  const unsigned per_state = 1 + 2 * dls_index_bits(nstates);
  const unsigned table_bits = nstates * per_state + nstates /* guard */;
  return (table_bits + 7) / 8 + distinct * sizeof(Word);
}

/// §5.6's bound in bytes: the densest legal table stores a DISTINCT value
/// in every state ("2^m is the best possible uniform bound"). Composition
/// of within-bound mappings stays within it — the closure argument — so a
/// switch budgeted at the bound never declines.
[[nodiscard]] constexpr std::size_t dls_size_bound(unsigned nstates) noexcept {
  return dls_encoded_bytes(nstates, nstates);
}

}  // namespace detail

/// Guarded RMW operation over an automaton with NStates states.
template <unsigned NStates>
class DlsOp {
  static_assert(NStates >= 1 && NStates <= 16,
                "tractability requires a small state set (see §5.6)");

 public:
  using value_type = DlsCell;
  static constexpr unsigned kStates = NStates;
  /// The §5.6 size bound for this state count — the default try_compose
  /// budget, at which composition never declines.
  static constexpr std::size_t kSizeBound = detail::dls_size_bound(NStates);

  /// What the mapping does when the cell is in a given state.
  struct Entry {
    bool store = false;       ///< store `value` (else keep the old word)
    Word value = 0;           ///< stored word, if `store`
    std::uint8_t next = 0;    ///< successor state

    friend constexpr bool operator==(const Entry&, const Entry&) = default;
  };

  /// Identity mapping (every state: keep value, stay put). The identity is
  /// unguarded — it succeeds everywhere — so its guard is the full set and
  /// composing it in changes no success predicate.
  constexpr DlsOp() noexcept {
    for (unsigned s = 0; s < NStates; ++s) entries_[s] = Entry{false, 0, static_cast<std::uint8_t>(s)};
  }

  static constexpr DlsOp identity() noexcept { return DlsOp{}; }

  /// A guarded load: succeeds in the states of `guard` (bitmask), moving
  /// the tag through `next`; fails (identity) elsewhere.
  static constexpr DlsOp guarded_load(std::uint16_t guard,
                                      std::array<std::uint8_t, NStates> next) noexcept {
    DlsOp op;
    for (unsigned s = 0; s < NStates; ++s) {
      if (guard & (1u << s)) {
        KRS_ASSERT(next[s] < NStates);
        op.entries_[s] = Entry{false, 0, next[s]};
      }
    }
    op.guard_ = static_cast<std::uint16_t>(guard & kFullGuard);
    return op;
  }

  /// A guarded store of v.
  static constexpr DlsOp guarded_store(Word v, std::uint16_t guard,
                                       std::array<std::uint8_t, NStates> next) noexcept {
    DlsOp op;
    for (unsigned s = 0; s < NStates; ++s) {
      if (guard & (1u << s)) {
        KRS_ASSERT(next[s] < NStates);
        op.entries_[s] = Entry{true, v, next[s]};
      }
    }
    op.guard_ = static_cast<std::uint16_t>(guard & kFullGuard);
    return op;
  }

  /// Copy of this mapping with a NARROWER wire budget than the §5.6 bound,
  /// modeling a switch whose message format carries fewer value slots.
  /// Compositions whose table would exceed the budget decline (§7 partial
  /// combining serves them at the root instead).
  [[nodiscard]] constexpr DlsOp with_size_budget(std::size_t bytes) const noexcept {
    DlsOp op = *this;
    op.size_budget_ = static_cast<std::uint16_t>(bytes);
    return op;
  }

  [[nodiscard]] constexpr std::size_t size_budget() const noexcept {
    return size_budget_;
  }

  [[nodiscard]] constexpr const Entry& entry(unsigned s) const noexcept {
    KRS_EXPECTS(s < NStates);
    return entries_[s];
  }

  /// The success predicate, as a state bitmask. For an original guarded
  /// operation this is its guard set V; `compose` maintains it (the
  /// combined request succeeds from s iff every step of the chain finds
  /// its guard along the chased path), so `succeeded()` on a composed
  /// session is meaningful — the issuer of a combined request can read
  /// whole-session success off the one reply.
  [[nodiscard]] constexpr std::uint16_t guard() const noexcept { return guard_; }

  [[nodiscard]] constexpr bool succeeded(const DlsCell& old) const noexcept {
    return (guard_ & (1u << old.state)) != 0;
  }

  [[nodiscard]] constexpr DlsCell apply(const DlsCell& c) const noexcept {
    KRS_EXPECTS(c.state < NStates);
    const Entry& e = entries_[c.state];
    return DlsCell{e.store ? e.value : c.value, e.next};
  }

  /// Number of distinct store values the encoding must carry — the paper's
  /// §5.6 bound says this never exceeds |S|.
  [[nodiscard]] constexpr unsigned distinct_store_values() const noexcept {
    std::array<Word, NStates> vals{};
    unsigned n = 0;
    for (unsigned s = 0; s < NStates; ++s) {
      if (!entries_[s].store) continue;
      bool seen = false;
      for (unsigned i = 0; i < n; ++i) {
        if (vals[i] == entries_[s].value) {
          seen = true;
          break;
        }
      }
      if (!seen) vals[n++] = entries_[s].value;
    }
    return n;
  }

  /// Wire bytes: per state 1 store-flag bit + next-state index + store-slot
  /// index (⌈lg |S|⌉ bits each) + 1 guard bit, rounded up to bytes, plus
  /// one word per distinct store value (see detail::dls_encoded_bytes).
  [[nodiscard]] constexpr std::size_t encoded_size_bytes() const noexcept {
    return detail::dls_encoded_bytes(NStates, distinct_store_values());
  }

  [[nodiscard]] std::string to_string() const {
    std::string s = "dls{";
    for (unsigned i = 0; i < NStates; ++i) {
      if (i) s += ";";
      const Entry& e = entries_[i];
      s += 's';
      s += std::to_string(i);
      s += e.store ? "->(" + std::to_string(e.value) + ",s" : "->(keep,s";
      s += std::to_string(e.next);
      s += ')';
    }
    return s + "}";
  }

  friend constexpr bool operator==(const DlsOp& a, const DlsOp& b) noexcept {
    return a.entries_ == b.entries_;  // guard/budget are issuer-side metadata
  }

  /// "f then g": chase each state through f, then through g. The success
  /// predicate composes along the same chase: the chain succeeds from s
  /// iff f admits s AND g admits the state f leaves behind.
  friend constexpr DlsOp compose(const DlsOp& f, const DlsOp& g) noexcept {
    DlsOp out;
    std::uint16_t guard = 0;
    for (unsigned s = 0; s < NStates; ++s) {
      const Entry& e1 = f.entries_[s];
      const Entry& e2 = g.entries_[e1.next];
      Entry& o = out.entries_[s];
      o.store = e1.store || e2.store;
      // Normalize value to 0 for keep-entries so equality is canonical.
      o.value = e2.store ? e2.value : (e1.store ? e1.value : 0);
      o.next = e2.next;
      if ((f.guard_ & (1u << s)) && (g.guard_ & (1u << e1.next))) {
        guard |= static_cast<std::uint16_t>(1u << s);
      }
    }
    out.guard_ = guard;
    out.size_budget_ = f.size_budget_ < g.size_budget_ ? f.size_budget_
                                                       : g.size_budget_;
    return out;
  }

  /// Composition under the wire budget: combine unless the composed table
  /// would exceed the narrower operand's byte budget — then decline, and
  /// the switch serves the second individually (§7 partial combining). At
  /// the default budget (the §5.6 bound) this never declines: the
  /// composed table has one row per state, so it carries at most |S|
  /// distinct store values — the closure the bound expresses.
  friend constexpr std::optional<DlsOp> try_compose(const DlsOp& f,
                                                    const DlsOp& g) noexcept {
    DlsOp out = compose(f, g);
    if (out.encoded_size_bytes() > out.size_budget_) return std::nullopt;
    return out;
  }

 private:
  static constexpr std::uint16_t kFullGuard =
      static_cast<std::uint16_t>((1u << NStates) - 1);

  std::array<Entry, NStates> entries_{};
  std::uint16_t guard_ = kFullGuard;
  std::uint16_t size_budget_ = static_cast<std::uint16_t>(kSizeBound);
};

static_assert(Rmw<DlsOp<2>>);
static_assert(Rmw<DlsOp<4>>);

// --- the word-level runtime family --------------------------------------------

/// A §5.6 guarded operation over a WORD-PACKED tagged cell, sized at
/// runtime (1..16 states). This is the encoding that makes data-level
/// synchronization a first-class citizen of the RmwBackend seam: the op is
/// an alternative of core::AnyRmw, so the atomic CAS loop, the combining
/// tree, the flat combiner, the sharded wrapper, the lock tier, and the
/// simulated machine all serve it through their ordinary fetch_rmw path.
/// Cells must be initialized with dls_pack(initial) and values must stay
/// below kDlsValueLimit (the tag owns the low bits).
///
/// Stored in its wire form, 24 bytes: ONE inline store value, a 4-bit
/// successor per state, one store bit per state, the guard, the budget
/// and the state count. A guarded op stores at most one value; a
/// composition that would carry a second distinct value declines
/// (`try_compose` → nullopt), and §7 partial combining serves it at the
/// root. DlsOp<N> keeps the full |S|-value table.
///
/// Identity is the UNIVERSAL identity (state-count 0 sentinel): it applies
/// as a plain load on any cell and composes with any automaton — so
/// AnyRmw's identity-absorption and the Rmw identity laws hold without
/// knowing the state count. try_compose also declines across distinct
/// automata (different state counts: the transition tables are not
/// composable) and past the wire budget, exactly like DlsOp.
class DlsWordOp {
 public:
  using value_type = Word;
  static constexpr unsigned kMaxStates = 16;

  /// Universal identity: plain load, composes with everything.
  constexpr DlsWordOp() noexcept = default;

  static constexpr DlsWordOp identity() noexcept { return DlsWordOp{}; }

  [[nodiscard]] constexpr bool is_identity() const noexcept {
    return nstates_ == 0;
  }

  [[nodiscard]] constexpr unsigned states() const noexcept { return nstates_; }

  static constexpr DlsWordOp guarded_load(
      unsigned nstates, std::uint16_t guard,
      const std::array<std::uint8_t, kMaxStates>& next) noexcept {
    return make(nstates, guard, next, /*store=*/false, 0);
  }

  static constexpr DlsWordOp guarded_store(
      unsigned nstates, Word v, std::uint16_t guard,
      const std::array<std::uint8_t, kMaxStates>& next) noexcept {
    KRS_EXPECTS(v < kDlsValueLimit);
    return make(nstates, guard, next, /*store=*/true, v);
  }

  /// The packed twin of a compile-time DlsOp (same table, same guard, same
  /// budget semantics) — the bridge the equivalence tests drive.
  /// Precondition: `op` stores at most one distinct value.
  template <unsigned N>
  static constexpr DlsWordOp from(const DlsOp<N>& op) noexcept {
    KRS_EXPECTS(op.distinct_store_values() <= 1);
    DlsWordOp out;
    out.nstates_ = N;
    out.guard_ = op.guard();
    out.size_budget_ = static_cast<std::uint16_t>(op.size_budget());
    for (unsigned s = 0; s < N; ++s) {
      const auto& e = op.entry(s);
      if (e.store) {
        KRS_ASSERT(e.value < kDlsValueLimit);
        out.value_ = e.value;
        out.store_ |= static_cast<std::uint16_t>(1u << s);
      }
      out.next_ |= std::uint64_t{e.next} << (kNextBits * s);
    }
    return out;
  }

  /// Copy with a narrower wire budget (see DlsOp::with_size_budget).
  [[nodiscard]] constexpr DlsWordOp with_size_budget(
      std::size_t bytes) const noexcept {
    DlsWordOp op = *this;
    op.size_budget_ = static_cast<std::uint16_t>(bytes);
    return op;
  }

  [[nodiscard]] constexpr std::size_t size_budget() const noexcept {
    return size_budget_;
  }

  [[nodiscard]] constexpr std::uint16_t guard() const noexcept {
    return is_identity() ? std::uint16_t{0xFFFF} : guard_;
  }

  /// Success read off the packed PRIOR word of the reply, per the §5.6
  /// nack rule: the issuer decodes the old state and checks its guard.
  [[nodiscard]] constexpr bool succeeded(Word prior) const noexcept {
    return is_identity() ||
           (guard_ & (1u << (prior & kDlsStateMask))) != 0;
  }

  /// Total on words: a tag outside the automaton (s ≥ nstates, only
  /// reachable through a mis-initialized cell) behaves as failure —
  /// identity, like any un-guarded state.
  [[nodiscard]] constexpr Word apply(Word w) const noexcept {
    const unsigned s = static_cast<unsigned>(w & kDlsStateMask);
    if (s >= nstates_) return w;  // also the identity (nstates_ == 0)
    const Word value = stores_in(s) ? value_ : (w >> kDlsStateBits);
    return (value << kDlsStateBits) | next_of(s);
  }

  /// 0 or 1: the wire form carries at most one store value.
  [[nodiscard]] constexpr unsigned distinct_store_values() const noexcept {
    return store_ != 0 ? 1 : 0;
  }

  /// Same wire format as DlsOp (detail::dls_encoded_bytes); the identity
  /// is a bare load — one byte of opcode, no table.
  [[nodiscard]] constexpr std::size_t encoded_size_bytes() const noexcept {
    if (is_identity()) return 1;
    return detail::dls_encoded_bytes(nstates_, distinct_store_values());
  }

  [[nodiscard]] std::string to_string() const {
    if (is_identity()) return "dlsw{id}";
    std::string s = "dlsw{";
    for (unsigned i = 0; i < nstates_; ++i) {
      if (i) s += ";";
      s += 's';
      s += std::to_string(i);
      s += stores_in(i) ? "->(" + std::to_string(value_) + ",s"
                        : "->(keep,s";
      s += std::to_string(next_of(i));
      s += ')';
    }
    return s + "}";
  }

  /// Semantic equality: same automaton size and same per-state behavior
  /// (the value is 0 unless some state stores it, so comparing every
  /// field but the metadata is exact). Guard and budget are issuer/switch
  /// metadata, kept out of equality like DlsOp does.
  friend constexpr bool operator==(const DlsWordOp& a,
                                   const DlsWordOp& b) noexcept {
    return a.nstates_ == b.nstates_ && a.next_ == b.next_ &&
           a.store_ == b.store_ && a.value_ == b.value_;
  }

  /// "f then g", defined when one side is the identity or the state
  /// counts match; the table chase, guard composition, and budget meet
  /// mirror DlsOp::compose. Precondition: the result stores at most one
  /// distinct value (try_compose declines otherwise).
  friend constexpr DlsWordOp compose(const DlsWordOp& f, const DlsWordOp& g) {
    const auto out = chase(f, g);
    KRS_EXPECTS(out.has_value());
    return *out;
  }

  /// Decline across distinct automata, past a second store value and past
  /// the wire budget; combine otherwise. §7 partial combining makes every
  /// decline correct — the switch serves the second individually at the
  /// root.
  friend constexpr std::optional<DlsWordOp> try_compose(
      const DlsWordOp& f, const DlsWordOp& g) noexcept {
    if (!f.is_identity() && !g.is_identity() && f.nstates_ != g.nstates_) {
      return std::nullopt;
    }
    const auto out = chase(f, g);
    if (!out || out->encoded_size_bytes() > out->size_budget_) {
      return std::nullopt;
    }
    return out;
  }

 private:
  static constexpr unsigned kNextBits = 4;
  static constexpr std::uint64_t kNextMask = (1u << kNextBits) - 1;

  [[nodiscard]] constexpr bool stores_in(unsigned s) const noexcept {
    return (store_ >> s) & 1u;
  }
  [[nodiscard]] constexpr std::uint8_t next_of(unsigned s) const noexcept {
    return static_cast<std::uint8_t>((next_ >> (kNextBits * s)) & kNextMask);
  }

  /// The composed table, or nullopt when it would need both f's and g's
  /// store values and they differ: the one case the wire form cannot
  /// carry.
  static constexpr std::optional<DlsWordOp> chase(const DlsWordOp& f,
                                                  const DlsWordOp& g) noexcept {
    if (f.is_identity()) return g;
    if (g.is_identity()) return f;
    KRS_EXPECTS(f.nstates_ == g.nstates_);
    DlsWordOp out;
    out.nstates_ = f.nstates_;
    bool keeps_f = false, takes_g = false;
    for (unsigned s = 0; s < f.nstates_; ++s) {
      const unsigned mid = f.next_of(s);
      const bool by_g = g.stores_in(mid);
      const bool by_f = !by_g && f.stores_in(s);
      takes_g = takes_g || by_g;
      keeps_f = keeps_f || by_f;
      if (by_g || by_f) out.store_ |= static_cast<std::uint16_t>(1u << s);
      out.next_ |= std::uint64_t{g.next_of(mid)} << (kNextBits * s);
      if ((f.guard_ & (1u << s)) && (g.guard_ & (1u << mid))) {
        out.guard_ |= static_cast<std::uint16_t>(1u << s);
      }
    }
    if (keeps_f && takes_g && f.value_ != g.value_) return std::nullopt;
    out.value_ = takes_g ? g.value_ : (keeps_f ? f.value_ : 0);
    out.size_budget_ = f.size_budget_ < g.size_budget_ ? f.size_budget_
                                                       : g.size_budget_;
    return out;
  }

  static constexpr DlsWordOp make(
      unsigned nstates, std::uint16_t guard,
      const std::array<std::uint8_t, kMaxStates>& next, bool store,
      Word v) noexcept {
    KRS_EXPECTS(nstates >= 1 && nstates <= kMaxStates);
    DlsWordOp op;
    op.nstates_ = static_cast<std::uint8_t>(nstates);
    op.guard_ = static_cast<std::uint16_t>(guard & ((1u << nstates) - 1));
    op.size_budget_ =
        static_cast<std::uint16_t>(detail::dls_size_bound(nstates));
    for (unsigned s = 0; s < nstates; ++s) {
      const bool in = (op.guard_ >> s) & 1u;
      KRS_ASSERT(!in || next[s] < nstates);
      op.next_ |= std::uint64_t{in ? next[s] : s} << (kNextBits * s);
    }
    if (store && op.guard_ != 0) {
      op.value_ = v;
      op.store_ = op.guard_;
    }
    return op;
  }

  Word value_ = 0;                 ///< the store value; 0 if none stores
  std::uint64_t next_ = 0;         ///< successor of state s at bits 4s..4s+3
  std::uint16_t store_ = 0;        ///< bit s: state s stores value_
  std::uint16_t guard_ = 0;
  std::uint16_t size_budget_ = 1;  ///< identity encodes as one opcode byte
  std::uint8_t nstates_ = 0;       ///< 0 = universal identity
};

static_assert(Rmw<DlsWordOp>);
static_assert(sizeof(DlsWordOp) <= 24,
              "the wire form: one value word plus a two-word table");

}  // namespace krs::core
