// A heterogeneous RMW operation: a closed variant over the word-valued
// mapping families. Lets one simulated machine serve a mixed instruction
// stream (loads next to fetch-and-adds next to Boolean ops), the realistic
// setting of the Ultracomputer/RP3.
//
// Requests of different families do not combine with each other (the switch
// just declines — partial combining is always correct, §7). Requests of the
// same family combine through that family's composition. A load could in
// principle combine with anything (it is the identity of every family);
// exploiting that is left to the family-specific identity-absorption rules
// tested in tests/core.
//
// apply() is the one member on a hot path: the runtime's software
// combiners call it between loading the hot word and the CAS that
// installs f(v), as §2's memory applies the mapping inside one RMW. The
// variant is 32 bytes, sized by DlsWordOp's 24-byte wire form (one store
// value and a packed table) plus the tag; every other family fits in 16.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <variant>

#include "core/affine.hpp"
#include "core/bool_unary.hpp"
#include "core/dls.hpp"
#include "core/fetch_theta.hpp"
#include "core/load_store_swap.hpp"
#include "core/rmw.hpp"
#include "util/assert.hpp"

namespace krs::core {

class AnyRmw {
 public:
  using value_type = Word;
  using Alt = std::variant<LssOp, FetchAdd, FetchOr, FetchAnd, FetchXor,
                           FetchMin, FetchMax, BoolVec, Affine, DlsWordOp>;

  constexpr AnyRmw() noexcept : op_(LssOp::load()) {}

  template <typename M>
    requires std::constructible_from<Alt, M>
  constexpr AnyRmw(M m) noexcept : op_(std::move(m)) {}  // NOLINT(implicit)

  static constexpr AnyRmw identity() noexcept { return AnyRmw{}; }

  /// One index dispatch with every family's apply inlined: the combiners'
  /// direct path runs this between the load of the hot word and its CAS,
  /// where an out-of-line call (std::visit's __do_visit) would widen the
  /// window in which another core can take the line away. always_inline
  /// because GCC otherwise outlines the fold as a clone.
  [[nodiscard, gnu::always_inline]] constexpr Word apply(Word x) const {
    return apply_at(x, std::make_index_sequence<std::variant_size_v<Alt>>{});
  }

  [[nodiscard]] std::size_t encoded_size_bytes() const {
    // One tag byte plus the family encoding.
    return 1 + std::visit([](const auto& f) { return f.encoded_size_bytes(); },
                          op_);
  }

  /// Calls `f` with the held family's mapping.
  template <typename F>
  constexpr decltype(auto) visit(F&& f) const {
    return std::visit(std::forward<F>(f), op_);
  }

  template <typename M>
  [[nodiscard]] constexpr bool holds() const noexcept {
    return std::holds_alternative<M>(op_);
  }

  template <typename M>
  [[nodiscard]] constexpr const M& get() const {
    return std::get<M>(op_);
  }

  [[nodiscard]] std::string to_string() const {
    return std::visit([](const auto& f) { return f.to_string(); }, op_);
  }

  friend constexpr bool operator==(const AnyRmw&, const AnyRmw&) = default;

  /// Total composition; precondition: same family (try_compose succeeds).
  friend constexpr AnyRmw compose(const AnyRmw& f, const AnyRmw& g) {
    auto r = try_compose(f, g);
    KRS_EXPECTS(r.has_value());
    return *r;
  }

  friend constexpr std::optional<AnyRmw> try_compose(const AnyRmw& f,
                                                     const AnyRmw& g) {
    if (f.op_.index() != g.op_.index()) return std::nullopt;
    return std::visit(
        [&g](const auto& ff) -> std::optional<AnyRmw> {
          using M = std::decay_t<decltype(ff)>;
          auto r = try_compose(ff, std::get<M>(g.op_));
          if (!r) return std::nullopt;
          return AnyRmw(*r);
        },
        f.op_);
  }

 private:
  template <std::size_t... I>
  [[gnu::always_inline]] constexpr Word apply_at(
      Word x, std::index_sequence<I...>) const {
    const std::size_t i = op_.index();
    Word y = x;
    (void)((i == I && (y = std::get_if<I>(&op_)->apply(x), true)) || ...);
    return y;
  }

  Alt op_;
};

static_assert(Rmw<AnyRmw>);

}  // namespace krs::core
