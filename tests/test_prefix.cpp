// §6 — parallel prefix: the asynchronous CSP tree computes exclusive
// prefixes; the tree circuit's gate count and cycle count match the paper's
// formulas (checked, not restated); Sklansky/Ladner–Fischer comparison;
// equivalence with composing RMW mappings.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "core/affine.hpp"
#include "prefix/async_tree.hpp"
#include "prefix/circuits.hpp"
#include "prefix/schedule.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace {

using namespace krs::prefix;
using krs::core::Affine;
using krs::core::Word;

// --- asynchronous tree -------------------------------------------------------

TEST(AsyncTree, ComputesExclusivePrefixSums) {
  const std::vector<long> vals = {3, 1, 4, 1, 5, 9, 2, 6};
  const auto r = async_prefix(vals, std::plus<long>{}, 0L);
  long acc = 0;
  for (std::size_t i = 0; i < vals.size(); ++i) {
    EXPECT_EQ(r.exclusive_prefix[i], acc) << i;
    acc += vals[i];
  }
  EXPECT_EQ(r.total, acc);
}

class AsyncTreeSizes : public ::testing::TestWithParam<int> {};

TEST_P(AsyncTreeSizes, MatchesSerialForAnyN) {
  const int n = GetParam();
  krs::util::Xoshiro256 rng(n);
  std::vector<long> vals;
  for (int i = 0; i < n; ++i) vals.push_back(static_cast<long>(rng.below(100)));
  const auto r = async_prefix(vals, std::plus<long>{}, 0L);
  long acc = 0;
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(r.exclusive_prefix[i], acc);
    acc += vals[i];
  }
  EXPECT_EQ(r.total, acc);
}

INSTANTIATE_TEST_SUITE_P(Sizes, AsyncTreeSizes,
                         ::testing::Values(1, 2, 3, 5, 7, 8, 13, 16, 31, 32,
                                           64));

TEST(AsyncTree, NonCommutativeOperationKeepsOrder) {
  // String concatenation is associative but not commutative: any ordering
  // bug in the tree shows up immediately.
  std::vector<std::string> vals;
  for (int i = 0; i < 16; ++i) vals.push_back(std::string(1, 'a' + i));
  const auto r = async_prefix(
      vals, [](const std::string& a, const std::string& b) { return a + b; },
      std::string{});
  std::string acc;
  for (std::size_t i = 0; i < vals.size(); ++i) {
    EXPECT_EQ(r.exclusive_prefix[i], acc);
    acc += vals[i];
  }
  EXPECT_EQ(r.total, "abcdefghijklmnop");
}

TEST(AsyncTree, RmwMappingCompositionIsThePayload) {
  // The tree combines RMW mappings exactly as the network would: leaf i's
  // exclusive prefix applied to X0 is the reply request i receives.
  krs::util::Xoshiro256 rng(7);
  std::vector<Affine> ops;
  for (int i = 0; i < 16; ++i) {
    ops.push_back(rng.chance(0.5) ? Affine::fetch_add(rng.below(50))
                                  : Affine::fetch_mul(1 + rng.below(3)));
  }
  const auto r = async_prefix(
      ops, [](const Affine& f, const Affine& g) { return compose(f, g); },
      Affine::identity());
  const Word x0 = 17;
  Word serial = x0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(r.exclusive_prefix[i].apply(x0), serial);
    serial = ops[i].apply(serial);
  }
  EXPECT_EQ(r.total.apply(x0), serial);
}

TEST(AsyncTree, ApplicationCountMatchesAnalyzer) {
  for (std::size_t n : {2u, 4u, 8u, 16u, 32u, 64u}) {
    std::vector<long> vals(n, 1);
    const auto r = async_prefix(vals, std::plus<long>{}, 0L);
    // The threaded tree performs ALL 2(n-1) multiplications (it does not
    // elide the trivial ones — dataflow nodes don't inspect values).
    EXPECT_EQ(r.applications, 2 * (n - 1));
  }
}

TEST(AsyncTree, RobustToTimingSkew) {
  // "The global clock synchronization ... is replaced by local dataflow
  // synchronization": correctness must not depend on node timing. Inject
  // random delays into the combining operation itself.
  krs::util::Xoshiro256 rng(99);
  std::vector<long> vals;
  for (int i = 0; i < 24; ++i) vals.push_back(static_cast<long>(rng.below(50)));
  const auto slow_plus = [](const long& a, const long& b) {
    // Deterministic per-value jitter: spin proportional to the operand.
    volatile long sink = 0;
    for (long i = 0; i < (a * 7 + b * 13) % 2000; ++i) sink = sink + i;
    return a + b;
  };
  const auto r = async_prefix(vals, slow_plus, 0L);
  long acc = 0;
  for (std::size_t i = 0; i < vals.size(); ++i) {
    EXPECT_EQ(r.exclusive_prefix[i], acc);
    acc += vals[i];
  }
  EXPECT_EQ(r.total, acc);
}

// --- the paper's §6 formulas -------------------------------------------------

class PrefixFormulas : public ::testing::TestWithParam<unsigned> {};

TEST_P(PrefixFormulas, NontrivialMultiplicationsAre2nMinus2MinusLgN) {
  const unsigned k = GetParam();
  const std::size_t n = std::size_t{1} << k;
  const auto rep = analyze_prefix_tree(n);
  EXPECT_EQ(rep.internal_nodes, n - 1);
  EXPECT_EQ(rep.total_multiplications, 2 * (n - 1));
  EXPECT_EQ(rep.trivial_multiplications, k);  // the ⌈lg n⌉ of the paper
  EXPECT_EQ(rep.nontrivial_multiplications, 2 * n - 2 - k);
}

TEST_P(PrefixFormulas, CycleCountIs2LgNMinus2) {
  const unsigned k = GetParam();
  const std::size_t n = std::size_t{1} << k;
  const auto rep = analyze_prefix_tree(n);
  EXPECT_EQ(rep.leaf_critical_path, 2 * k - 2);
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, PrefixFormulas,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u,
                                           10u));

TEST(PrefixFormulas, GeneralNIsConsistent) {
  // For non-powers of two there is no closed form in the paper; invariants:
  // n-1 internal nodes, 2(n-1) multiplications, trivial count equals the
  // left-spine length, critical path within [lg n, 2 lg n].
  for (std::size_t n : {3u, 5u, 6u, 7u, 9u, 12u, 100u, 1000u}) {
    const auto rep = analyze_prefix_tree(n);
    EXPECT_EQ(rep.internal_nodes, n - 1);
    EXPECT_EQ(rep.total_multiplications, 2 * (n - 1));
    const auto lg = krs::util::log2_ceil(n);
    EXPECT_GE(rep.leaf_critical_path + 2, lg);
    EXPECT_LE(rep.leaf_critical_path, 2 * lg);
  }
}

// --- circuits ----------------------------------------------------------------

class CircuitSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CircuitSizes, TreeCircuitEvaluatesExclusivePrefixes) {
  const std::size_t n = GetParam();
  const auto c = tree_prefix_circuit(n);
  krs::util::Xoshiro256 rng(n);
  std::vector<long> xs;
  for (std::size_t i = 0; i < n; ++i) xs.push_back(static_cast<long>(rng.below(50)));
  long total = 0;
  const auto out =
      c.evaluate_with_total(xs, std::plus<long>{}, 0L, total);
  long acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out[i], acc);
    acc += xs[i];
  }
  EXPECT_EQ(total, acc);
}

TEST_P(CircuitSizes, SklanskyCircuitEvaluatesExclusivePrefixes) {
  const std::size_t n = GetParam();
  const auto c = sklansky_prefix_circuit(n);
  krs::util::Xoshiro256 rng(n + 1);
  std::vector<long> xs;
  for (std::size_t i = 0; i < n; ++i) xs.push_back(static_cast<long>(rng.below(50)));
  long total = 0;
  const auto out = c.evaluate_with_total(xs, std::plus<long>{}, 0L, total);
  long acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out[i], acc);
    acc += xs[i];
  }
  EXPECT_EQ(total, acc);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CircuitSizes,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 8u, 16u, 17u,
                                           32u, 100u, 256u));

TEST(Circuits, TreeGateCountEqualsPaperFormula) {
  // "the operations performed by this tree are exactly the same operations
  // performed by the Ladner-Fisher parallel prefix network": for n = 2^k
  // the circuit has exactly 2n − 2 − lg n gates.
  for (unsigned k = 1; k <= 10; ++k) {
    const std::size_t n = std::size_t{1} << k;
    const auto c = tree_prefix_circuit(n);
    EXPECT_EQ(c.size(), 2 * n - 2 - k) << "n=" << n;
    EXPECT_EQ(c.size(), analyze_prefix_tree(n).nontrivial_multiplications);
  }
}

TEST(Circuits, SklanskyHasMinimalDepthButMoreGates) {
  // At n = 4 both constructions coincide (4 gates); the trade-off appears
  // from n = 8 on.
  for (unsigned k = 3; k <= 10; ++k) {
    const std::size_t n = std::size_t{1} << k;
    const auto tree = tree_prefix_circuit(n);
    const auto skl = sklansky_prefix_circuit(n);
    // Sklansky reaches depth lg n (inclusive prefixes at depth k; our
    // exclusive outputs are a shift, so ≤ k), the tree needs ~2 lg n...
    EXPECT_LE(skl.output_depth(), k);
    EXPECT_GE(tree.output_depth(), skl.output_depth());
    // ...but the tree uses fewer gates (linear vs n/2 · lg n).
    EXPECT_LT(tree.size(), skl.size());
  }
}

TEST(Circuits, TreeDepthMatchesScheduleCriticalPath) {
  for (unsigned k = 1; k <= 8; ++k) {
    const std::size_t n = std::size_t{1} << k;
    const auto c = tree_prefix_circuit(n);
    const auto rep = analyze_prefix_tree(n);
    EXPECT_EQ(c.output_depth(), rep.leaf_critical_path) << "n=" << n;
  }
}

TEST(Circuits, NonCommutativeEvaluation) {
  const std::size_t n = 16;
  std::vector<std::string> xs;
  for (std::size_t i = 0; i < n; ++i) xs.push_back(std::string(1, 'a' + static_cast<char>(i)));
  const auto cat = [](const std::string& a, const std::string& b) {
    return a + b;
  };
  for (const auto& c : {tree_prefix_circuit(n), sklansky_prefix_circuit(n)}) {
    std::string total;
    const auto out = c.evaluate_with_total(xs, cat, std::string{}, total);
    std::string acc;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i], acc);
      acc += xs[i];
    }
    EXPECT_EQ(total, "abcdefghijklmnop");
  }
}

}  // namespace
