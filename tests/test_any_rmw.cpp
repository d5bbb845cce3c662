// The heterogeneous AnyRmw wrapper: same-family composition delegates to
// the family, cross-family composition declines (partial combining, §7),
// and the wrapper satisfies the Rmw concept laws.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "core/any_rmw.hpp"
#include "util/rng.hpp"

namespace {

using namespace krs::core;

std::vector<AnyRmw> sample_ops() {
  return {
      AnyRmw(LssOp::load()),       AnyRmw(LssOp::store(3)),
      AnyRmw(LssOp::swap(7)),      AnyRmw(FetchAdd(11)),
      AnyRmw(FetchOr(0x10)),       AnyRmw(FetchMin(5)),
      AnyRmw(BoolVec::broadcast(BoolFn::kComp)),
      AnyRmw(BoolVec::masked_store(0xAB, 0xFF)),
      AnyRmw(Affine(3, 4)),
  };
}

TEST(AnyRmw, ApplyDelegates) {
  EXPECT_EQ(AnyRmw(FetchAdd(5)).apply(10), 15u);
  EXPECT_EQ(AnyRmw(LssOp::store(3)).apply(10), 3u);
  EXPECT_EQ(AnyRmw(Affine(2, 1)).apply(10), 21u);
}

// Sample mappings of one family. Every alternative of AnyRmw::Alt needs a
// branch: a family without one reaches the static_assert.
template <typename M>
std::vector<M> family_samples(krs::util::Xoshiro256& rng) {
  if constexpr (std::is_same_v<M, LssOp>) {
    return {LssOp::load(), LssOp::store(rng.next()), LssOp::swap(rng.next())};
  } else if constexpr (requires { typename M::op_type; }) {
    // Every fetch-and-θ family: FetchAdd, FetchOr, FetchAnd, FetchXor,
    // FetchMin, FetchMax.
    return {M(rng.next()), M(rng.next()), M(rng.below(256)), M::identity()};
  } else if constexpr (std::is_same_v<M, BoolVec>) {
    return {BoolVec::broadcast(BoolFn::kComp),
            BoolVec::masked_store(rng.next(), rng.next()),
            BoolVec(rng.next(), rng.next())};
  } else if constexpr (std::is_same_v<M, Affine>) {
    return {Affine(rng.next(), rng.next()), Affine(3, 4), Affine::identity()};
  } else if constexpr (std::is_same_v<M, DlsWordOp>) {
    // The identity, then random 2- and 16-state automata, each as a
    // guarded load and a guarded store.
    std::vector<M> out{DlsWordOp::identity()};
    for (const unsigned n : {2u, DlsWordOp::kMaxStates}) {
      std::array<std::uint8_t, DlsWordOp::kMaxStates> next{};
      for (unsigned s = 0; s < n; ++s) {
        next[s] = static_cast<std::uint8_t>(rng.below(n));
      }
      const auto guard = static_cast<std::uint16_t>(rng.below(1u << n));
      out.push_back(DlsWordOp::guarded_load(n, guard, next));
      out.push_back(DlsWordOp::guarded_store(
          n, rng.below(kDlsValueLimit), guard, next));
    }
    return out;
  } else {
    static_assert(!sizeof(M), "AnyRmw family without samples");
  }
}

template <std::size_t... I>
void check_every_family(krs::util::Xoshiro256& rng,
                        std::index_sequence<I...>) {
  const auto check = [&rng]<std::size_t K>() {
    using M = std::variant_alternative_t<K, AnyRmw::Alt>;
    for (const M& m : family_samples<M>(rng)) {
      const AnyRmw any(m);
      ASSERT_TRUE(any.holds<M>());
      for (int t = 0; t < 64; ++t) {
        // Small words too, so a DLS state tag lands inside the automaton.
        const Word x = t % 2 ? rng.next() : rng.below(64);
        EXPECT_EQ(any.apply(x), m.apply(x))
            << "family " << K << ' ' << m.to_string() << " at " << x;
      }
    }
  };
  (check.template operator()<I>(), ...);
}

TEST(AnyRmw, ApplyDelegatesForEveryFamily) {
  krs::util::Xoshiro256 rng(26);
  check_every_family(
      rng, std::make_index_sequence<std::variant_size_v<AnyRmw::Alt>>{});
}

TEST(AnyRmw, SameFamilyComposes) {
  const auto r = try_compose(AnyRmw(FetchAdd(5)), AnyRmw(FetchAdd(7)));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, AnyRmw(FetchAdd(12)));
  const auto lss =
      try_compose(AnyRmw(LssOp::load()), AnyRmw(LssOp::store(3)));
  ASSERT_TRUE(lss.has_value());
  EXPECT_EQ(*lss, AnyRmw(LssOp::swap(3)));
}

TEST(AnyRmw, CrossFamilyDeclines) {
  const auto ops = sample_ops();
  for (const auto& f : ops) {
    for (const auto& g : ops) {
      const auto r = try_compose(f, g);
      // Composition succeeds iff the alternatives match; when it does, it
      // must equal sequential application.
      if (r.has_value()) {
        for (Word x : {Word{0}, Word{17}, Word{255}}) {
          EXPECT_EQ(r->apply(x), g.apply(f.apply(x)))
              << f.to_string() << " then " << g.to_string();
        }
      }
    }
  }
  EXPECT_FALSE(
      try_compose(AnyRmw(FetchAdd(1)), AnyRmw(LssOp::load())).has_value());
  EXPECT_FALSE(
      try_compose(AnyRmw(FetchOr(1)), AnyRmw(FetchAdd(1))).has_value());
}

TEST(AnyRmw, IdentityIsLoad) {
  EXPECT_TRUE(AnyRmw::identity().holds<LssOp>());
  for (Word x : {Word{0}, Word{42}}) {
    EXPECT_EQ(AnyRmw::identity().apply(x), x);
  }
}

TEST(AnyRmw, EncodedSizeAddsTagByte) {
  EXPECT_EQ(AnyRmw(FetchAdd(1)).encoded_size_bytes(),
            1 + FetchAdd(1).encoded_size_bytes());
  EXPECT_EQ(AnyRmw(LssOp::load()).encoded_size_bytes(),
            1 + LssOp::load().encoded_size_bytes());
}

TEST(AnyRmw, GetAndHolds) {
  const AnyRmw op(FetchAdd(9));
  ASSERT_TRUE(op.holds<FetchAdd>());
  EXPECT_FALSE(op.holds<LssOp>());
  EXPECT_EQ(op.get<FetchAdd>().operand(), 9u);
}

TEST(AnyRmw, ChainEqualsSerialWhenCombinable) {
  krs::util::Xoshiro256 rng(77);
  for (int trial = 0; trial < 300; ++trial) {
    // A chain of same-family ops interleaved with declined cross-family
    // combos: simulate a switch that combines maximal same-family runs.
    std::vector<AnyRmw> ops;
    const int n = 1 + static_cast<int>(rng.below(10));
    for (int i = 0; i < n; ++i) {
      ops.push_back(rng.chance(0.5) ? AnyRmw(FetchAdd(rng.below(50)))
                                    : AnyRmw(Affine(rng.below(4), rng.below(50))));
    }
    // Greedy run-combining, then serial application of the combined runs.
    std::vector<AnyRmw> runs;
    for (const auto& op : ops) {
      if (!runs.empty()) {
        if (auto c = try_compose(runs.back(), op)) {
          runs.back() = *c;
          continue;
        }
      }
      runs.push_back(op);
    }
    Word via_runs = 5, serial = 5;
    for (const auto& r : runs) via_runs = r.apply(via_runs);
    for (const auto& op : ops) serial = op.apply(serial);
    EXPECT_EQ(via_runs, serial);
  }
}

}  // namespace
