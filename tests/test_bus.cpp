// The §7 bus machine: shared-bus multiprocessor with interleaved banks and
// FIFO queue combining — correctness (via the Theorem 4.2 checker) and the
// throughput claim ("combining in this queue will improve the memory
// throughput").
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "core/fetch_theta.hpp"
#include "core/load_store_swap.hpp"
#include "sim/bus_machine.hpp"
#include "verify/memory_checker.hpp"
#include "workload/workloads.hpp"

namespace {

using namespace krs;
using core::FetchAdd;
using core::LssOp;
using sim::BusMachine;
using sim::BusMachineConfig;

template <core::Rmw M>
using SourceVec = std::vector<std::unique_ptr<proc::TrafficSource<M>>>;

TEST(BusMachine, SingleRequestRoundTrip) {
  BusMachineConfig<FetchAdd> cfg;
  cfg.processors = 4;
  cfg.banks = 2;
  SourceVec<FetchAdd> src;
  for (std::uint32_t p = 0; p < 4; ++p) {
    std::deque<workload::ScriptedSource<FetchAdd>::Item> items;
    if (p == 2) items.push_back({0, 7, FetchAdd(5)});
    src.push_back(
        std::make_unique<workload::ScriptedSource<FetchAdd>>(std::move(items)));
  }
  BusMachine<FetchAdd> m(cfg, std::move(src));
  ASSERT_TRUE(m.run(1000));
  ASSERT_EQ(m.completed().size(), 1u);
  EXPECT_EQ(m.completed()[0].reply, 0u);
  EXPECT_EQ(m.value_at(7), 5u);
  EXPECT_TRUE(verify::check_machine(m, 0).ok);
}

TEST(BusMachine, HotBankSerializesWithoutCombining) {
  auto run_with = [](bool combining, core::Tick service_interval) {
    BusMachineConfig<FetchAdd> cfg;
    cfg.processors = 8;
    cfg.banks = 4;
    cfg.bank_cfg.combine_in_queue = combining;
    cfg.bank_cfg.service_interval = service_interval;
    SourceVec<FetchAdd> src;
    for (std::uint32_t p = 0; p < 8; ++p) {
      src.push_back(std::make_unique<workload::SingleAddressSource<FetchAdd>>(
          5, 64, [](util::Xoshiro256&) { return FetchAdd(1); }, p));
    }
    BusMachine<FetchAdd> m(cfg, std::move(src));
    EXPECT_TRUE(m.run(1000000));
    EXPECT_EQ(m.value_at(5), 512u);
    const auto check = verify::check_machine(m, 0);
    EXPECT_TRUE(check.ok) << check.error;
    // Every request is combined in a bank FIFO or serviced, exactly once.
    std::uint64_t services = 0;
    for (std::uint32_t b = 0; b < m.module_count(); ++b) {
      services += m.module(b).stats().rmw_ops;
    }
    const auto st = m.stats();
    EXPECT_EQ(m.completed().size(), st.combines + services);
    EXPECT_EQ(m.combine_log().size(), st.combines);
    EXPECT_EQ(st.queue_combines, st.combines);
    return st;
  };
  // Slow banks (4 cycles/service): all 512 requests hit one bank.
  const auto base = run_with(false, 4);
  const auto comb = run_with(true, 4);
  EXPECT_EQ(base.queue_combines, 0u);
  EXPECT_GT(comb.queue_combines, 0u);
  EXPECT_LT(comb.cycles, base.cycles);
}

TEST(BusMachine, TicketsAreDistinct) {
  BusMachineConfig<FetchAdd> cfg;
  cfg.processors = 8;
  cfg.banks = 2;
  cfg.bank_cfg.combine_in_queue = true;
  cfg.bank_cfg.service_interval = 3;
  SourceVec<FetchAdd> src;
  for (std::uint32_t p = 0; p < 8; ++p) {
    src.push_back(std::make_unique<workload::SingleAddressSource<FetchAdd>>(
        9, 32, [](util::Xoshiro256&) { return FetchAdd(1); }, 50 + p));
  }
  BusMachine<FetchAdd> m(cfg, std::move(src));
  ASSERT_TRUE(m.run(1000000));
  std::set<core::Word> replies;
  for (const auto& op : m.completed()) replies.insert(op.reply);
  EXPECT_EQ(replies.size(), 256u);
  EXPECT_EQ(*replies.rbegin(), 255u);
}

class BusRandomSeeds : public ::testing::TestWithParam<int> {};

TEST_P(BusRandomSeeds, MixedTrafficVerifies) {
  BusMachineConfig<LssOp> cfg;
  cfg.processors = 6;
  cfg.banks = 3;
  cfg.bank_cfg.combine_in_queue = true;
  cfg.bank_cfg.service_interval = 2;
  SourceVec<LssOp> src;
  for (std::uint32_t p = 0; p < 6; ++p) {
    workload::HotSpotSource<LssOp>::Params params;
    params.total = 50;
    params.hot_fraction = 0.5;
    params.hot_addr = 3;
    params.addr_space = 64;
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
        900 + GetParam() * 31 + p));
  }
  BusMachine<LssOp> m(cfg, std::move(src));
  ASSERT_TRUE(m.run(1000000));
  ASSERT_EQ(m.completed().size(), 300u);
  const auto res = verify::check_machine(m, 0);
  EXPECT_TRUE(res.ok) << res.error;
}

INSTANTIATE_TEST_SUITE_P(Seeds, BusRandomSeeds, ::testing::Values(1, 2, 3, 4));

TEST(BusMachine, BusWidthLimitsThroughput) {
  auto run_width = [](unsigned width) {
    BusMachineConfig<FetchAdd> cfg;
    cfg.processors = 8;
    cfg.banks = 8;
    cfg.bus_width = width;
    SourceVec<FetchAdd> src;
    for (std::uint32_t p = 0; p < 8; ++p) {
      workload::HotSpotSource<FetchAdd>::Params params;
      params.total = 100;
      params.hot_fraction = 0.0;
      params.addr_space = 1024;
      src.push_back(std::make_unique<workload::HotSpotSource<FetchAdd>>(
          params, [](util::Xoshiro256&) { return FetchAdd(1); }, p));
    }
    BusMachine<FetchAdd> m(cfg, std::move(src));
    EXPECT_TRUE(m.run(1000000));
    EXPECT_TRUE(verify::check_machine(m, 0).ok);
    return m.stats().cycles;
  };
  // Uniform traffic: a wider bus finishes sooner (the bus is the
  // bottleneck, which is the §7 premise).
  EXPECT_LT(run_width(4), run_width(1));
}

}  // namespace
