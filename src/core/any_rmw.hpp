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

  [[nodiscard]] constexpr Word apply(Word x) const {
    return std::visit([x](const auto& f) { return f.apply(x); }, op_);
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
  Alt op_;
};

static_assert(Rmw<AnyRmw>);

}  // namespace krs::core
