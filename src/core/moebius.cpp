#include "core/moebius.hpp"

#include <numeric>

#include "util/assert.hpp"

namespace krs::core {

using util::checked_add;
using util::checked_mul;
using util::Rational;

namespace {

// Normalize (a,b,c,d) by the gcd of all four and fix the sign so that the
// first nonzero coefficient of (c, d, a, b) is positive. Returns false if
// the matrix does not denote a Möbius function ((c,d) == (0,0)).
bool normalize(std::int64_t& a, std::int64_t& b, std::int64_t& c,
               std::int64_t& d) noexcept {
  if (c == 0 && d == 0) return false;
  std::int64_t g = std::gcd(std::gcd(a, b), std::gcd(c, d));
  if (g == 0) g = 1;
  a /= g;
  b /= g;
  c /= g;
  d /= g;
  const std::int64_t lead = c != 0 ? c : (d != 0 ? d : (a != 0 ? a : b));
  if (lead < 0) {
    // Negating after division by gcd cannot overflow (magnitudes shrank or
    // stayed, and INT64_MIN/g is safe unless g==1 and value==INT64_MIN —
    // which normalize callers exclude via checked construction).
    a = -a;
    b = -b;
    c = -c;
    d = -d;
  }
  return true;
}

}  // namespace

Moebius::Moebius(std::int64_t a, std::int64_t b, std::int64_t c, std::int64_t d)
    : a_(a), b_(b), c_(c), d_(d) {
  // INT64_MIN cannot be sign-normalized without overflow; exclude it.
  KRS_EXPECTS(a != INT64_MIN && b != INT64_MIN && c != INT64_MIN &&
              d != INT64_MIN);
  const bool ok = normalize(a_, b_, c_, d_);
  KRS_EXPECTS(ok);
}

Rational Moebius::apply(const Rational& x) const noexcept {
  if (!x.ok()) return Rational::invalid();
  const Rational num = Rational(a_) * x + Rational(b_);
  const Rational den = Rational(c_) * x + Rational(d_);
  if (!num.ok() || !den.ok() || den.num() == 0) return Rational::invalid();
  return num / den;
}

std::string Moebius::to_string() const {
  std::string s = "(";
  s += std::to_string(a_);
  s += "x+";
  s += std::to_string(b_);
  s += ")/(";
  s += std::to_string(c_);
  s += "x+";
  s += std::to_string(d_);
  s += ')';
  return s;
}

std::optional<Moebius> try_compose(const Moebius& f,
                                   const Moebius& g) noexcept {
  // M(g) · M(f):
  //   | g.a g.b |   | f.a f.b |
  //   | g.c g.d | · | f.c f.d |
  const auto mul2add = [](std::int64_t p, std::int64_t q, std::int64_t r,
                          std::int64_t s) -> std::optional<std::int64_t> {
    const auto t1 = checked_mul(p, q);
    const auto t2 = checked_mul(r, s);
    if (!t1 || !t2) return std::nullopt;
    return checked_add(*t1, *t2);
  };
  const auto a = mul2add(g.a_, f.a_, g.b_, f.c_);
  const auto b = mul2add(g.a_, f.b_, g.b_, f.d_);
  const auto c = mul2add(g.c_, f.a_, g.d_, f.c_);
  const auto d = mul2add(g.c_, f.b_, g.d_, f.d_);
  if (!a || !b || !c || !d) return std::nullopt;
  if (*c == 0 && *d == 0) return std::nullopt;  // degenerate product
  if (*a == INT64_MIN || *b == INT64_MIN || *c == INT64_MIN ||
      *d == INT64_MIN) {
    return std::nullopt;  // not sign-normalizable
  }
  return Moebius(*a, *b, *c, *d);
}

Moebius compose(const Moebius& f, const Moebius& g) {
  const auto r = try_compose(f, g);
  KRS_EXPECTS(r.has_value());
  return *r;
}

}  // namespace krs::core
