// §5.5 — Full/empty bits (HEP-style tagged memory).
//
// Each shared word carries a full/empty tag bit. The four basic operations
// (load, load-and-clear, store-and-set, store-if-clear-and-set) generate,
// under composition, exactly two more (store-and-clear and
// store-if-clear-and-clear); the resulting set of six mapping forms on
// (value, flag) pairs is closed — the closure is *checked* here by deriving
// composition symbolically rather than from a hand-written table.
//
// Conditional operations are modeled as total mappings (a failed
// conditional store leaves the pair unchanged); the issuing processor
// detects failure from the old flag value carried by the reply, exactly as
// the paper prescribes ("a processor can check the value of the full-empty
// bit returned by the load operation to determine if it was successful").
//
// A reply carries a data word only for loads (and combined stores that
// contain a load); stores need just an acknowledgment — the paper's traffic
// bound (never more data values than an uncombining network) is exercised
// in the benches.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/rmw.hpp"
#include "core/types.hpp"

namespace krs::core {

/// A tagged memory cell: data word plus full/empty bit.
struct FEWord {
  Word value = 0;
  bool full = false;

  friend constexpr bool operator==(const FEWord&, const FEWord&) = default;
};

inline std::string to_string(const FEWord& w) {
  std::string s = "(";
  s += std::to_string(w.value);
  s += w.full ? ",full)" : ",empty)";
  return s;
}

enum class FEKind : std::uint8_t {
  kLoad,              ///< (X, f) → (X, f)
  kLoadClear,         ///< (X, f) → (X, 0)
  kStoreSet,          ///< (X, f) → (v, 1)
  kStoreIfClearSet,   ///< (X, 0) → (v, 1); (X, 1) → (X, 1)
  kStoreClear,        ///< (X, f) → (v, 0)      [= store-and-set ∘ load-and-clear]
  kStoreIfClearClear  ///< (X, 0) → (v, 0); (X, 1) → (X, 0)
                      ///<                [= store-if-clear-and-set ∘ load-and-clear]
};

const char* to_cstring(FEKind k) noexcept;

class FEOp {
 public:
  using value_type = FEWord;

  constexpr FEOp() noexcept : kind_(FEKind::kLoad), value_(0) {}

  static constexpr FEOp load() noexcept { return FEOp{}; }
  static constexpr FEOp load_and_clear() noexcept {
    return FEOp(FEKind::kLoadClear, 0);
  }
  static constexpr FEOp store_and_set(Word v) noexcept {
    return FEOp(FEKind::kStoreSet, v);
  }
  static constexpr FEOp store_if_clear_and_set(Word v) noexcept {
    return FEOp(FEKind::kStoreIfClearSet, v);
  }
  static constexpr FEOp store_and_clear(Word v) noexcept {
    return FEOp(FEKind::kStoreClear, v);
  }
  static constexpr FEOp store_if_clear_and_clear(Word v) noexcept {
    return FEOp(FEKind::kStoreIfClearClear, v);
  }
  static constexpr FEOp identity() noexcept { return load(); }

  [[nodiscard]] constexpr FEKind kind() const noexcept { return kind_; }
  [[nodiscard]] constexpr Word value() const noexcept { return value_; }

  [[nodiscard]] constexpr FEWord apply(const FEWord& w) const noexcept {
    switch (kind_) {
      case FEKind::kLoad:
        return w;
      case FEKind::kLoadClear:
        return {w.value, false};
      case FEKind::kStoreSet:
        return {value_, true};
      case FEKind::kStoreIfClearSet:
        return w.full ? FEWord{w.value, true} : FEWord{value_, true};
      case FEKind::kStoreClear:
        return {value_, false};
      case FEKind::kStoreIfClearClear:
        return w.full ? FEWord{w.value, false} : FEWord{value_, false};
    }
    return w;
  }

  /// Did this operation's conditional part succeed, given the old cell
  /// state carried by the reply? (Unconditional ops always succeed; a plain
  /// load "succeeds" when the cell was full, the producer/consumer reading
  /// convention of the paper.)
  [[nodiscard]] constexpr bool succeeded(const FEWord& old) const noexcept {
    switch (kind_) {
      case FEKind::kLoad:
      case FEKind::kLoadClear:
        return old.full;
      case FEKind::kStoreIfClearSet:
      case FEKind::kStoreIfClearClear:
        return !old.full;
      case FEKind::kStoreSet:
      case FEKind::kStoreClear:
        return true;
    }
    return true;
  }

  [[nodiscard]] constexpr bool carries_value() const noexcept {
    return kind_ != FEKind::kLoad && kind_ != FEKind::kLoadClear;
  }

  /// Does the reply need the old data word (i.e. is a load embedded)?
  [[nodiscard]] constexpr bool reply_needs_data() const noexcept {
    return kind_ == FEKind::kLoad || kind_ == FEKind::kLoadClear;
  }

  /// Opcode byte (+ flag bit folded in) plus an optional data word.
  [[nodiscard]] constexpr std::size_t encoded_size_bytes() const noexcept {
    return carries_value() ? 1 + sizeof(Word) : 1;
  }

  [[nodiscard]] std::string to_string() const;

  friend constexpr bool operator==(const FEOp&, const FEOp&) = default;

  /// "f then g", derived by symbolic evaluation on both flag branches and
  /// classified back into one of the six closed forms.
  friend constexpr FEOp compose(const FEOp& f, const FEOp& g) noexcept;

  friend constexpr std::optional<FEOp> try_compose(const FEOp& f,
                                                   const FEOp& g) noexcept {
    return compose(f, g);
  }

 private:
  constexpr FEOp(FEKind k, Word v) noexcept : kind_(k), value_(v) {}

  FEKind kind_;
  Word value_;
};

namespace detail {

/// Symbolic cell value: either "the original X" or a known constant.
struct SymVal {
  bool is_const = false;
  Word c = 0;

  friend constexpr bool operator==(const SymVal&, const SymVal&) = default;
};

struct SymState {
  SymVal val;
  bool flag = false;
};

constexpr SymState sym_apply(const FEOp& op, SymState s) noexcept {
  const SymVal stored{true, op.value()};
  switch (op.kind()) {
    case FEKind::kLoad:
      return s;
    case FEKind::kLoadClear:
      return {s.val, false};
    case FEKind::kStoreSet:
      return {stored, true};
    case FEKind::kStoreIfClearSet:
      return s.flag ? SymState{s.val, true} : SymState{stored, true};
    case FEKind::kStoreClear:
      return {stored, false};
    case FEKind::kStoreIfClearClear:
      return s.flag ? SymState{s.val, false} : SymState{stored, false};
  }
  return s;
}

}  // namespace detail

constexpr FEOp compose(const FEOp& f, const FEOp& g) noexcept {
  using detail::SymState;
  using detail::SymVal;
  const SymVal x{};  // symbolic original value
  // Branch on the initial flag.
  SymState s0 = detail::sym_apply(g, detail::sym_apply(f, {x, false}));
  SymState s1 = detail::sym_apply(g, detail::sym_apply(f, {x, true}));
  // Classify (s0, s1) into one of the six closed forms.
  if (s0.val == x && s1.val == x) {
    if (s0.flag == false && s1.flag == true) return FEOp::load();
    // (Both-branches-preserve with flag constant 0 is load-and-clear; the
    // flag pattern 0/0 is the only other reachable one.)
    return FEOp::load_and_clear();
  }
  if (s0.val.is_const && s1.val == s0.val) {
    // Unconditional store of s0.val.c.
    return s0.flag ? FEOp::store_and_set(s0.val.c)
                   : FEOp::store_and_clear(s0.val.c);
  }
  // Conditional: empty branch stores, full branch preserves.
  return s0.flag ? FEOp::store_if_clear_and_set(s0.val.c)
                 : FEOp::store_if_clear_and_clear(s0.val.c);
}

static_assert(Rmw<FEOp>);

}  // namespace krs::core
