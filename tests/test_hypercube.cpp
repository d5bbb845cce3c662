// §7's direct-connection machine: the hypercube where processors act as
// switches and node memories form a distributed shared memory. Correctness
// via the Theorem 4.2 checker; combining at intermediate nodes collapses
// hot-spot trees just as in the indirect network.
#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "core/fetch_theta.hpp"
#include "core/load_store_swap.hpp"
#include "sim/hypercube_machine.hpp"
#include "verify/memory_checker.hpp"
#include "workload/workloads.hpp"

namespace {

using namespace krs;
using core::FetchAdd;
using core::LssOp;
using sim::HypercubeConfig;
using sim::HypercubeMachine;

template <core::Rmw M>
using SourceVec = std::vector<std::unique_ptr<proc::TrafficSource<M>>>;

TEST(Hypercube, SingleRequestRoundTrip) {
  HypercubeConfig<FetchAdd> cfg;
  cfg.dimensions = 3;
  SourceVec<FetchAdd> src;
  for (std::uint32_t u = 0; u < 8; ++u) {
    std::deque<workload::ScriptedSource<FetchAdd>::Item> items;
    // Node 0 targets an address owned by node 7 (three hops away).
    if (u == 0) items.push_back({0, 7, FetchAdd(5)});
    src.push_back(
        std::make_unique<workload::ScriptedSource<FetchAdd>>(std::move(items)));
  }
  HypercubeMachine<FetchAdd> m(cfg, std::move(src));
  ASSERT_TRUE(m.run(1000));
  ASSERT_EQ(m.completed().size(), 1u);
  EXPECT_EQ(m.completed()[0].reply, 0u);
  EXPECT_EQ(m.value_at(7), 5u);
  EXPECT_EQ(m.stats().hops, 3u);  // Hamming distance 0 → 7
  EXPECT_TRUE(verify::check_machine(m, 0).ok);
}

TEST(Hypercube, LocalAccessTakesNoLinks) {
  HypercubeConfig<FetchAdd> cfg;
  cfg.dimensions = 3;
  SourceVec<FetchAdd> src;
  for (std::uint32_t u = 0; u < 8; ++u) {
    std::deque<workload::ScriptedSource<FetchAdd>::Item> items;
    if (u == 5) items.push_back({0, 5, FetchAdd(9)});  // addr 5 lives on node 5
    src.push_back(
        std::make_unique<workload::ScriptedSource<FetchAdd>>(std::move(items)));
  }
  HypercubeMachine<FetchAdd> m(cfg, std::move(src));
  ASSERT_TRUE(m.run(1000));
  EXPECT_EQ(m.stats().hops, 0u);
  EXPECT_EQ(m.value_at(5), 9u);
  EXPECT_TRUE(verify::check_machine(m, 0).ok);
}

TEST(Hypercube, HotSpotTicketsAreDistinct) {
  HypercubeConfig<FetchAdd> cfg;
  cfg.dimensions = 4;
  SourceVec<FetchAdd> src;
  for (std::uint32_t u = 0; u < 16; ++u) {
    src.push_back(std::make_unique<workload::SingleAddressSource<FetchAdd>>(
        3, 32, [](util::Xoshiro256&) { return FetchAdd(1); }, 70 + u));
  }
  HypercubeMachine<FetchAdd> m(cfg, std::move(src));
  ASSERT_TRUE(m.run(1000000));
  std::set<core::Word> replies;
  for (const auto& op : m.completed()) replies.insert(op.reply);
  EXPECT_EQ(replies.size(), 512u);
  EXPECT_EQ(m.value_at(3), 512u);
  EXPECT_GT(m.stats().combines, 0u);
  EXPECT_TRUE(verify::check_machine(m, 0).ok);
}

TEST(Hypercube, CombiningBeatsNoCombiningOnHotSpot) {
  auto run_with = [](net::CombinePolicy policy) {
    HypercubeConfig<FetchAdd> cfg;
    cfg.dimensions = 4;
    cfg.policy = policy;
    SourceVec<FetchAdd> src;
    for (std::uint32_t u = 0; u < 16; ++u) {
      src.push_back(std::make_unique<workload::SingleAddressSource<FetchAdd>>(
          3, 48, [](util::Xoshiro256&) { return FetchAdd(1); }, u));
    }
    HypercubeMachine<FetchAdd> m(cfg, std::move(src));
    EXPECT_TRUE(m.run(1000000));
    EXPECT_TRUE(verify::check_machine(m, 0).ok);
    return m.stats();
  };
  const auto comb = run_with(net::CombinePolicy::kUnlimited);
  const auto base = run_with(net::CombinePolicy::kNone);
  EXPECT_LT(comb.cycles, base.cycles);
  // Combining also cuts link traffic (absorbed requests stop traveling).
  EXPECT_LT(comb.hops, base.hops);
}

HypercubeMachine<FetchAdd> hot_spot_cube(HypercubeConfig<FetchAdd> cfg) {
  cfg.dimensions = 4;
  SourceVec<FetchAdd> src;
  for (std::uint32_t u = 0; u < 16; ++u) {
    workload::HotSpotSource<FetchAdd>::Params params;
    params.total = 16;
    params.hot_fraction = 0.5;
    params.hot_addr = 3;
    params.addr_space = 64;
    src.push_back(std::make_unique<workload::HotSpotSource<FetchAdd>>(
        params, [](util::Xoshiro256& r) { return FetchAdd(r.below(9)); },
        41 + u));
  }
  return {cfg, std::move(src)};
}

// Pairwise allows one combine per queued message per node, and a message
// queues at one node per hop of its e-cube path, so a representative from
// node p absorbs at most popcount(p ^ home(addr)) requests in all.
TEST(Hypercube, PairwisePolicyCombinesAtMostOncePerQueuedMessage) {
  auto run_with = [](net::CombinePolicy policy) {
    HypercubeConfig<FetchAdd> cfg;
    cfg.policy = policy;
    auto m = hot_spot_cube(cfg);
    EXPECT_TRUE(m.run(1000000));
    EXPECT_TRUE(verify::check_machine(m, 0).ok);
    std::map<core::ReqId, std::pair<unsigned, core::Addr>> fan_in;
    for (const auto& ev : m.combine_log()) {
      auto& [n, addr] = fan_in[ev.representative];
      ++n;
      addr = ev.addr;
    }
    bool within = true;
    for (const auto& [rep, entry] : fan_in) {
      const auto hops = std::popcount(rep.proc ^ m.module_of(entry.second));
      within = within && entry.first <= static_cast<unsigned>(hops);
    }
    return std::make_pair(m.stats().combines, within);
  };
  const auto [pairwise, pairwise_within] =
      run_with(net::CombinePolicy::kPairwise);
  const auto [unlimited, unlimited_within] =
      run_with(net::CombinePolicy::kUnlimited);
  EXPECT_GT(pairwise, 0u);
  EXPECT_LT(pairwise, unlimited);
  EXPECT_TRUE(pairwise_within);
  EXPECT_FALSE(unlimited_within);  // the bound has teeth
}

// The cap bounds the records one node holds, as the switch's does.
TEST(Hypercube, WaitBufferCapacityBoundsRecords) {
  HypercubeConfig<FetchAdd> cfg;
  cfg.wait_buffer_capacity = 2;
  auto m = hot_spot_cube(cfg);
  ASSERT_TRUE(m.run(1000000));
  EXPECT_TRUE(verify::check_machine(m, 0).ok);
  EXPECT_GT(m.stats().combines, 0u);
  EXPECT_LE(m.stats().max_wait_buffer, 2u);
}

class HypercubeSeeds : public ::testing::TestWithParam<int> {};

TEST_P(HypercubeSeeds, RandomLssTrafficVerifies) {
  HypercubeConfig<LssOp> cfg;
  cfg.dimensions = 3;
  SourceVec<LssOp> src;
  for (std::uint32_t u = 0; u < 8; ++u) {
    workload::HotSpotSource<LssOp>::Params params;
    params.total = 40;
    params.hot_fraction = 0.4;
    params.hot_addr = 6;
    params.addr_space = 128;
    src.push_back(std::make_unique<workload::HotSpotSource<LssOp>>(
        params,
        [](util::Xoshiro256& r) {
          switch (r.below(3)) {
            case 0:
              return LssOp::load();
            case 1:
              return LssOp::store(r.below(100));
            default:
              return LssOp::swap(r.below(100));
          }
        },
        1234 + GetParam() * 17 + u));
  }
  HypercubeMachine<LssOp> m(cfg, std::move(src));
  ASSERT_TRUE(m.run(2000000));
  ASSERT_EQ(m.completed().size(), 320u);
  const auto res = verify::check_machine(m, 0);
  EXPECT_TRUE(res.ok) << res.error;
}

INSTANTIATE_TEST_SUITE_P(Seeds, HypercubeSeeds,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(Hypercube, ConservationLaw) {
  // ops = combines (routers and, with module combining, module FIFOs) +
  // memory services.
  for (const bool module_combining : {false, true}) {
    SCOPED_TRACE(module_combining ? "module combining" : "routers only");
    HypercubeConfig<FetchAdd> cfg;
    cfg.dimensions = 3;
    cfg.mem_cfg.combine_in_queue = module_combining;
    cfg.mem_cfg.service_interval = module_combining ? 4 : 1;
    SourceVec<FetchAdd> src;
    for (std::uint32_t u = 0; u < 8; ++u) {
      workload::HotSpotSource<FetchAdd>::Params params;
      params.total = 50;
      params.hot_fraction = 0.6;
      params.addr_space = 64;
      src.push_back(std::make_unique<workload::HotSpotSource<FetchAdd>>(
          params, [](util::Xoshiro256& r) { return FetchAdd(r.below(9)); },
          99 + u));
    }
    HypercubeMachine<FetchAdd> m(cfg, std::move(src));
    ASSERT_TRUE(m.run(1000000));
    std::uint64_t services = 0;
    std::uint64_t module_combines = 0;
    for (std::uint32_t u = 0; u < 8; ++u) {
      services += m.module(u).stats().rmw_ops;
      module_combines += m.module(u).stats().queue_combines;
    }
    EXPECT_EQ(module_combines > 0, module_combining);
    EXPECT_EQ(m.completed().size(), m.stats().combines + services);
    EXPECT_EQ(m.combine_log().size(), m.stats().combines);
  }
}

}  // namespace
