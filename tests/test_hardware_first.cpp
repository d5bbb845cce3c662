// The hardware-first front end's contract (runtime/hardware_first.hpp),
// checked on both combiners built on it. Single-threaded, so every direct
// CAS lands and no op meets:
//
//  * a slot at or past slots() is served as slot mod slots();
//  * a direct op counts in its slot's SlotCounter: in the owner's word
//    when the caller's ordinal is the slot, else in the shared word, and
//    the total is exact either way;
//  * update() counts in serialized_updates, never in ops;
//  * after direct-only traffic, ops == direct_applies.
#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>
#include <utility>

#include "core/any_rmw.hpp"
#include "core/fetch_theta.hpp"
#include "runtime/combining_tree.hpp"
#include "runtime/flat_combining.hpp"
#include "runtime/thread_ordinal.hpp"

#include "test_peers.hpp"

namespace {

using namespace krs::runtime;
using krs::core::AnyRmw;
using krs::core::FetchAdd;
using krs::core::Word;

using Tree = MappingCombiningTree<AnyRmw>;
using Flat = FlatCombiner<>;

template <typename C>
using PeerOf = std::conditional_t<std::is_same_v<C, Tree>,
                                  CombiningTreeTestPeer, FlatCombinerTestPeer>;

template <typename C>
class HardwareFirstContract : public ::testing::Test {};
using Combiners = ::testing::Types<Tree, Flat>;
TYPED_TEST_SUITE(HardwareFirstContract, Combiners);

TYPED_TEST(HardwareFirstContract, SlotPastTheCountIsServedModTheCount) {
  TypeParam c(4, 0);
  const unsigned n = c.slots();
  ASSERT_EQ(n, 4u);
  const unsigned ord = thread_ordinal();
  ASSERT_LT(ord, n);
  Word want = 0;
  for (const unsigned slot : {n, n + 1, 2 * n + 3, 5 * n + 2, kNoOrdinal}) {
    SCOPED_TRACE(slot);
    const unsigned idx = slot % n;
    const auto before = PeerOf<TypeParam>::direct_counts(c, idx);
    EXPECT_EQ(c.fetch_rmw(slot, AnyRmw(FetchAdd(3))), want);
    want += 3;
    const auto after = PeerOf<TypeParam>::direct_counts(c, idx);
    // Counted in slot idx's counter: the owner's word if this thread's
    // ordinal is idx, else the shared word.
    const bool own = idx == ord;
    EXPECT_EQ(after.first - before.first, own ? 1u : 0u);
    EXPECT_EQ(after.second - before.second, own ? 0u : 1u);
  }
  EXPECT_EQ(c.read(), want);
  EXPECT_EQ(c.stats().direct_applies, 5u);
}

TYPED_TEST(HardwareFirstContract, AliasedCallerCountsInTheSharedWord) {
  TypeParam c(4, 0);
  const unsigned n = c.slots();
  const unsigned ord = thread_ordinal();
  ASSERT_LT(ord, n);
  const unsigned other = (ord + 1) % n;
  for (unsigned i = 0; i < 7; ++i) c.fetch_rmw(other, AnyRmw(FetchAdd(1)));
  for (unsigned i = 0; i < 2; ++i) c.fetch_rmw(ord, AnyRmw(FetchAdd(1)));
  EXPECT_EQ(PeerOf<TypeParam>::direct_counts(c, other),
            (std::pair<std::uint64_t, std::uint64_t>{0, 7}));
  EXPECT_EQ(PeerOf<TypeParam>::direct_counts(c, ord),
            (std::pair<std::uint64_t, std::uint64_t>{2, 0}));
  EXPECT_EQ(c.stats().direct_applies, 9u);
  EXPECT_EQ(c.read(), 9u);
}

TYPED_TEST(HardwareFirstContract, UpdatesCountApartFromOps) {
  TypeParam c(4, 10);
  for (unsigned i = 0; i < 5; ++i) c.fetch_rmw(i, AnyRmw(FetchAdd(2)));
  for (unsigned i = 0; i < 3; ++i) {
    c.update([](Word v) { return v * 2; });
  }
  const auto st = c.stats();
  EXPECT_EQ(st.ops, 5u);
  EXPECT_EQ(st.direct_applies, 5u);
  EXPECT_EQ(st.serialized_updates, 3u);
  EXPECT_EQ(c.read(), (10u + 5 * 2) * 8);
}

TYPED_TEST(HardwareFirstContract, DirectOnlyTrafficIsAllDirectApplies) {
  TypeParam c(4, 0);
  for (unsigned i = 0; i < 40; ++i) {
    EXPECT_EQ(c.fetch_rmw(i, AnyRmw(FetchAdd(1))), i);
  }
  const auto st = c.stats();
  EXPECT_EQ(st.ops, 40u);
  EXPECT_EQ(st.ops, st.direct_applies);
  EXPECT_DOUBLE_EQ(st.direct_rate(), 1.0);
  EXPECT_EQ(st.serialized_updates, 0u);
}

}  // namespace
