// End-to-end machine tests: the full combining multiprocessor (processors,
// Omega network, memory modules) against the paper's correctness criteria,
// for several RMW families and combining policies, verified by the
// Lemma 4.1 / Theorem 4.2 checker after every run.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <numeric>
#include <set>
#include <type_traits>
#include <vector>

#include "core/any_rmw.hpp"
#include "core/moebius.hpp"
#include "core/fetch_theta.hpp"
#include "core/full_empty.hpp"
#include "core/load_store_swap.hpp"
#include "sim/machine.hpp"
#include "verify/memory_checker.hpp"
#include "workload/workloads.hpp"

namespace {

using namespace krs;
using namespace krs::core;
using sim::Machine;
using sim::MachineConfig;

template <Rmw M>
using SourceVec = std::vector<std::unique_ptr<proc::TrafficSource<M>>>;

// --- single-request sanity ------------------------------------------------

TEST(Machine, SingleRequestRoundTrip) {
  MachineConfig<FetchAdd> cfg;
  cfg.log2_procs = 3;
  SourceVec<FetchAdd> src;
  for (std::uint32_t p = 0; p < 8; ++p) {
    std::deque<workload::ScriptedSource<FetchAdd>::Item> items;
    if (p == 3) items.push_back({0, 13, FetchAdd(5)});
    src.push_back(
        std::make_unique<workload::ScriptedSource<FetchAdd>>(std::move(items)));
  }
  Machine<FetchAdd> m(cfg, std::move(src));
  ASSERT_TRUE(m.run(1000));
  ASSERT_EQ(m.completed().size(), 1u);
  EXPECT_EQ(m.completed()[0].reply, 0u);
  EXPECT_EQ(m.value_at(13), 5u);
  // Round trip: k hops in, memory latency, k hops back, plus queueing.
  const auto lat = m.completed()[0].completed - m.completed()[0].issued;
  EXPECT_GE(lat, 2u * cfg.log2_procs + cfg.mem_cfg.latency);
  const auto res = verify::check_machine(m, 0);
  EXPECT_TRUE(res.ok) << res.error;
}

// --- the hot-spot fetch-and-add experiment --------------------------------

// ctest names each case after gtest's raw byte dump of this struct, so
// every byte of it is part of a test name. The three bytes after `policy`
// used to be padding, holding whatever the stack held, and the names moved
// from one test discovery to the next; `name_bytes` now spells out the
// bytes the recorded case names carry, so the names stay fixed.
struct HotSpotCase {
  unsigned log2_procs;
  net::CombinePolicy policy;
  std::array<std::uint8_t, 3> name_bytes;
  std::uint64_t per_proc;
};
static_assert(std::has_unique_object_representations_v<HotSpotCase>,
              "no padding may remain in a case name");

class MachineHotSpot : public ::testing::TestWithParam<HotSpotCase> {};

TEST_P(MachineHotSpot, AllFetchAddsToOneCellAreSerializable) {
  const auto c = GetParam();
  MachineConfig<FetchAdd> cfg;
  cfg.log2_procs = c.log2_procs;
  cfg.switch_cfg.policy = c.policy;
  const std::uint32_t n = 1u << c.log2_procs;
  SourceVec<FetchAdd> src;
  for (std::uint32_t p = 0; p < n; ++p) {
    src.push_back(std::make_unique<workload::SingleAddressSource<FetchAdd>>(
        7, c.per_proc, [](util::Xoshiro256&) { return FetchAdd(1); },
        1000 + p));
  }
  Machine<FetchAdd> m(cfg, std::move(src));
  ASSERT_TRUE(m.run(200000));
  const std::uint64_t total = static_cast<std::uint64_t>(n) * c.per_proc;
  ASSERT_EQ(m.completed().size(), total);
  // fetch-and-add(1) replies must be a permutation of 0..total-1 — each
  // processor got a distinct ticket (the basis of Ultracomputer
  // coordination).
  std::set<Word> replies;
  for (const auto& op : m.completed()) replies.insert(op.reply);
  EXPECT_EQ(replies.size(), total);
  EXPECT_EQ(*replies.begin(), 0u);
  EXPECT_EQ(*replies.rbegin(), total - 1);
  EXPECT_EQ(m.value_at(7), total);
  const auto res = verify::check_machine(m, 0);
  EXPECT_TRUE(res.ok) << res.error;
  if (c.policy == net::CombinePolicy::kNone) {
    EXPECT_EQ(m.stats().combines, 0u);
  } else {
    EXPECT_GT(m.stats().combines, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, MachineHotSpot,
    ::testing::Values(
        HotSpotCase{2, net::CombinePolicy::kNone, {0x3B, 0x2C, 0x00}, 8},
        HotSpotCase{2, net::CombinePolicy::kPairwise, {0x00, 0xD0, 0xEF}, 8},
        HotSpotCase{2, net::CombinePolicy::kUnlimited, {}, 8},
        HotSpotCase{4, net::CombinePolicy::kNone, {}, 16},
        HotSpotCase{4, net::CombinePolicy::kPairwise, {0x1E, 0x09, 0x00}, 16},
        HotSpotCase{4, net::CombinePolicy::kUnlimited, {0x00, 0xD0, 0xCA}, 16},
        HotSpotCase{5, net::CombinePolicy::kUnlimited, {}, 32}));

TEST(Machine, CombiningBeatsNoCombiningOnPureHotSpot) {
  auto run_with = [](net::CombinePolicy policy) {
    MachineConfig<FetchAdd> cfg;
    cfg.log2_procs = 4;
    cfg.switch_cfg.policy = policy;
    SourceVec<FetchAdd> src;
    for (std::uint32_t p = 0; p < 16; ++p) {
      src.push_back(std::make_unique<workload::SingleAddressSource<FetchAdd>>(
          3, 64, [](util::Xoshiro256&) { return FetchAdd(1); }, p));
    }
    Machine<FetchAdd> m(cfg, std::move(src));
    EXPECT_TRUE(m.run(1000000));
    EXPECT_TRUE(verify::check_machine(m, 0).ok);
    return m.stats().cycles;
  };
  const auto combining = run_with(net::CombinePolicy::kUnlimited);
  const auto baseline = run_with(net::CombinePolicy::kNone);
  // Without combining, one module serializes all 1024 ops (>= 1024 cycles);
  // combining collapses the tree and finishes far sooner.
  EXPECT_LT(combining * 2, baseline);
}

// --- randomized workloads across families, checker-verified ---------------

template <Rmw M>
void run_random_and_check(MachineConfig<M> cfg,
                          std::function<M(util::Xoshiro256&)> factory,
                          double hot_fraction, std::uint64_t per_proc,
                          std::uint64_t seed,
                          const typename M::value_type& initial = {}) {
  const std::uint32_t n = 1u << cfg.log2_procs;
  cfg.initial_value = initial;
  SourceVec<M> src;
  for (std::uint32_t p = 0; p < n; ++p) {
    typename workload::HotSpotSource<M>::Params params;
    params.total = per_proc;
    params.hot_fraction = hot_fraction;
    params.hot_addr = 5;
    params.addr_space = 256;
    src.push_back(std::make_unique<workload::HotSpotSource<M>>(
        params, factory, seed * 977 + p));
  }
  Machine<M> m(cfg, std::move(src));
  ASSERT_TRUE(m.run(2000000));
  ASSERT_EQ(m.completed().size(), static_cast<std::uint64_t>(n) * per_proc);
  const auto res = verify::check_machine(m, initial);
  EXPECT_TRUE(res.ok) << res.error;
  EXPECT_GT(res.locations_checked, 0u);
}

class MachineRandomSeeds : public ::testing::TestWithParam<int> {};

TEST_P(MachineRandomSeeds, FetchAddHotSpotMixVerifies) {
  MachineConfig<FetchAdd> cfg;
  cfg.log2_procs = 3;
  run_random_and_check<FetchAdd>(
      cfg, [](util::Xoshiro256& r) { return FetchAdd(r.below(100)); }, 0.3, 40,
      GetParam());
}

TEST_P(MachineRandomSeeds, LoadStoreSwapMixVerifies) {
  MachineConfig<LssOp> cfg;
  cfg.log2_procs = 3;
  run_random_and_check<LssOp>(
      cfg,
      [](util::Xoshiro256& r) {
        switch (r.below(3)) {
          case 0:
            return LssOp::load();
          case 1:
            return LssOp::store(r.below(1000));
          default:
            return LssOp::swap(r.below(1000));
        }
      },
      0.4, 40, GetParam());
}

TEST_P(MachineRandomSeeds, FullEmptyMixVerifies) {
  MachineConfig<FEOp> cfg;
  cfg.log2_procs = 3;
  run_random_and_check<FEOp>(
      cfg,
      [](util::Xoshiro256& r) {
        switch (r.below(6)) {
          case 0:
            return FEOp::load();
          case 1:
            return FEOp::load_and_clear();
          case 2:
            return FEOp::store_and_set(r.below(100));
          case 3:
            return FEOp::store_if_clear_and_set(r.below(100));
          case 4:
            return FEOp::store_and_clear(r.below(100));
          default:
            return FEOp::store_if_clear_and_clear(r.below(100));
        }
      },
      0.4, 30, GetParam(), FEWord{0, false});
}

TEST_P(MachineRandomSeeds, OrderReversalVerifies) {
  // §5.1 reversal enabled machine-wide: random load/store/swap traffic must
  // still serialize — the checker understands reversed combine events.
  MachineConfig<LssOp> cfg;
  cfg.log2_procs = 3;
  cfg.switch_cfg.allow_order_reversal = true;
  run_random_and_check<LssOp>(
      cfg,
      [](util::Xoshiro256& r) {
        switch (r.below(3)) {
          case 0:
            return LssOp::load();
          case 1:
            return LssOp::store(r.below(1000));
          default:
            return LssOp::swap(r.below(1000));
        }
      },
      0.5, 40, GetParam());
}

TEST_P(MachineRandomSeeds, SmallQueuesStillVerify) {
  // Tiny queues force stalls and back-pressure; correctness must hold.
  MachineConfig<FetchAdd> cfg;
  cfg.log2_procs = 4;
  cfg.switch_cfg.queue_capacity = 1;
  cfg.mem_cfg.queue_capacity = 1;
  run_random_and_check<FetchAdd>(
      cfg, [](util::Xoshiro256& r) { return FetchAdd(r.below(10)); }, 0.5, 25,
      GetParam());
}

TEST_P(MachineRandomSeeds, PairwisePolicyVerifies) {
  MachineConfig<FetchAdd> cfg;
  cfg.log2_procs = 4;
  cfg.switch_cfg.policy = net::CombinePolicy::kPairwise;
  run_random_and_check<FetchAdd>(
      cfg, [](util::Xoshiro256& r) { return FetchAdd(r.below(10)); }, 0.6, 25,
      GetParam());
}

TEST_P(MachineRandomSeeds, TinyWaitBufferVerifies) {
  MachineConfig<FetchAdd> cfg;
  cfg.log2_procs = 4;
  cfg.switch_cfg.wait_buffer_capacity = 2;
  run_random_and_check<FetchAdd>(
      cfg, [](util::Xoshiro256& r) { return FetchAdd(r.below(10)); }, 0.6, 25,
      GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MachineRandomSeeds,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- §5.4 arithmetic through the machine (exact rational cells) --------------

TEST(Machine, MoebiusArithmeticVerifies) {
  // fetch-and-{add,sub,mul} requests (division left out to keep every
  // serial execution well-defined) with exact Rational memory cells:
  // "assignments of the form x ← x θ c will be executed atomically, while
  // still being combined in the network."
  using krs::core::Moebius;
  MachineConfig<Moebius> cfg;
  cfg.log2_procs = 3;
  cfg.initial_value = krs::util::Rational(1);
  SourceVec<Moebius> src;
  for (std::uint32_t p = 0; p < 8; ++p) {
    workload::HotSpotSource<Moebius>::Params params;
    params.total = 25;
    params.hot_fraction = 0.5;
    params.hot_addr = 5;
    params.addr_space = 64;
    src.push_back(std::make_unique<workload::HotSpotSource<Moebius>>(
        params,
        [](util::Xoshiro256& r) {
          const auto k = static_cast<std::int64_t>(1 + r.below(5));
          switch (r.below(3)) {
            case 0:
              return Moebius::fetch_add(k);
            case 1:
              return Moebius::fetch_sub(k);
            default:
              return Moebius::fetch_mul(k);
          }
        },
        600 + p));
  }
  Machine<Moebius> m(cfg, std::move(src));
  ASSERT_TRUE(m.run(2000000));
  ASSERT_EQ(m.completed().size(), 200u);
  const auto res = verify::check_machine(m, krs::util::Rational(1));
  EXPECT_TRUE(res.ok) << res.error;
  // Overflow-declined combinations are fine; some combining should still
  // have happened on the hot cell.
  EXPECT_GT(m.stats().combines, 0u);
}

// --- M2.3: same-processor same-location order ------------------------------

TEST(Machine, SameProcessorSameLocationOrderPreserved) {
  MachineConfig<LssOp> cfg;
  cfg.log2_procs = 2;
  cfg.window = 4;  // both requests in flight simultaneously
  SourceVec<LssOp> src;
  for (std::uint32_t p = 0; p < 4; ++p) {
    std::deque<workload::ScriptedSource<LssOp>::Item> items;
    if (p == 0) {
      items.push_back({0, 9, LssOp::store(1)});
      items.push_back({0, 9, LssOp::store(2)});
      items.push_back({0, 9, LssOp::load()});
    }
    src.push_back(
        std::make_unique<workload::ScriptedSource<LssOp>>(std::move(items)));
  }
  Machine<LssOp> m(cfg, std::move(src));
  ASSERT_TRUE(m.run(10000));
  // The load (issued last) must observe the second store.
  ASSERT_EQ(m.completed().size(), 3u);
  for (const auto& op : m.completed()) {
    if (op.id.seq == 2) {
      EXPECT_EQ(op.reply, 2u);
    }
  }
  EXPECT_EQ(m.value_at(9), 2u);
  EXPECT_TRUE(verify::check_machine(m, 0).ok);
}

// --- traffic accounting ---------------------------------------------------------

TEST(Machine, CombiningReducesLinkTraffic) {
  auto run_with = [](net::CombinePolicy policy) {
    MachineConfig<FetchAdd> cfg;
    cfg.log2_procs = 4;
    cfg.switch_cfg.policy = policy;
    SourceVec<FetchAdd> src;
    for (std::uint32_t p = 0; p < 16; ++p) {
      src.push_back(std::make_unique<workload::SingleAddressSource<FetchAdd>>(
          3, 32, [](util::Xoshiro256&) { return FetchAdd(1); }, p));
    }
    Machine<FetchAdd> m(cfg, std::move(src));
    EXPECT_TRUE(m.run(1000000));
    EXPECT_TRUE(verify::check_machine(m, 0).ok);
    return m.stats();
  };
  const auto base = run_with(net::CombinePolicy::kNone);
  const auto comb = run_with(net::CombinePolicy::kUnlimited);
  // Without combining, every op occupies a queue slot at every stage:
  // 512 ops x 4 stages.
  EXPECT_EQ(base.request_messages, 512u * 4u);
  EXPECT_EQ(base.request_bytes, 512u * 4u * (16 + sizeof(core::Word)));
  // Combining absorbs most hot requests before they traverse all stages.
  EXPECT_LT(comb.request_messages, base.request_messages / 2);
  EXPECT_LT(comb.request_bytes, base.request_bytes / 2);
}

// --- §6: the combining pattern IS the physical tree ---------------------------

TEST(Machine, SimultaneousBurstCombinesAsBinaryTree) {
  // All n processors issue one fetch-and-add to one cell in the same
  // cycle. The requests meet pairwise at every stage: stage s performs
  // 2^(k-1-s) combines, memory sees ONE request, and the combine count is
  // n − 1 — §6's "physical tree which is a subgraph of the network".
  const unsigned k = 4;
  const std::uint32_t n = 1u << k;
  MachineConfig<FetchAdd> cfg;
  cfg.log2_procs = k;
  cfg.window = 1;
  SourceVec<FetchAdd> src;
  for (std::uint32_t p = 0; p < n; ++p) {
    std::deque<workload::ScriptedSource<FetchAdd>::Item> items;
    items.push_back({0, 7, FetchAdd(1)});
    src.push_back(
        std::make_unique<workload::ScriptedSource<FetchAdd>>(std::move(items)));
  }
  Machine<FetchAdd> m(cfg, std::move(src));
  ASSERT_TRUE(m.run(10000));
  EXPECT_EQ(m.stats().combines, n - 1);
  std::uint64_t services = 0;
  for (std::uint32_t i = 0; i < n; ++i) services += m.module(i).stats().rmw_ops;
  EXPECT_EQ(services, 1u);
  // Per-stage tree shape: stage s contributes 2^(k-1-s) combines.
  for (unsigned s = 0; s < k; ++s) {
    std::uint64_t stage_combines = 0;
    for (std::uint32_t row = 0; row < n / 2; ++row) {
      stage_combines += m.switch_stats(s, row).combines;
    }
    EXPECT_EQ(stage_combines, 1u << (k - 1 - s)) << "stage " << s;
  }
  EXPECT_EQ(m.value_at(7), n);
  EXPECT_TRUE(verify::check_machine(m, 0).ok);
}

// --- determinism ---------------------------------------------------------------

TEST(Machine, BitIdenticalAcrossRuns) {
  // Same seeds, same config ⇒ identical cycle counts, combine logs, and
  // reply streams (the property every experiment in bench/ relies on).
  auto run_once = [] {
    MachineConfig<FetchAdd> cfg;
    cfg.log2_procs = 4;
    SourceVec<FetchAdd> src;
    for (std::uint32_t p = 0; p < 16; ++p) {
      workload::HotSpotSource<FetchAdd>::Params params;
      params.total = 60;
      params.hot_fraction = 0.4;
      params.addr_space = 256;
      src.push_back(std::make_unique<workload::HotSpotSource<FetchAdd>>(
          params, [](util::Xoshiro256& r) { return FetchAdd(r.below(9)); },
          500 + p));
    }
    Machine<FetchAdd> m(cfg, std::move(src));
    EXPECT_TRUE(m.run(1000000));
    return m;
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.now(), b.now());
  EXPECT_EQ(a.stats().combines, b.stats().combines);
  ASSERT_EQ(a.completed().size(), b.completed().size());
  for (std::size_t i = 0; i < a.completed().size(); ++i) {
    EXPECT_EQ(a.completed()[i].id, b.completed()[i].id);
    EXPECT_EQ(a.completed()[i].reply, b.completed()[i].reply);
    EXPECT_EQ(a.completed()[i].completed, b.completed()[i].completed);
  }
  ASSERT_EQ(a.combine_log().size(), b.combine_log().size());
  for (std::size_t i = 0; i < a.combine_log().size(); ++i) {
    EXPECT_EQ(a.combine_log()[i].representative,
              b.combine_log()[i].representative);
    EXPECT_EQ(a.combine_log()[i].absorbed, b.combine_log()[i].absorbed);
  }
}

// --- conservation law ---------------------------------------------------------

TEST(Machine, RequestsAreCombinedOrServicedExactlyOnce) {
  // Every issued request either gets absorbed by exactly one combine event
  // (in a switch or, with module combining, in a module FIFO) or is
  // serviced at a module: ops = combines + memory services. This is the
  // counting skeleton behind Lemma 4.1's expansion argument.
  for (const bool module_combining : {false, true}) {
    SCOPED_TRACE(module_combining ? "module combining" : "switches only");
    MachineConfig<FetchAdd> cfg;
    cfg.log2_procs = 4;
    cfg.mem_cfg.combine_in_queue = module_combining;
    cfg.mem_cfg.service_interval = module_combining ? 4 : 1;
    SourceVec<FetchAdd> src;
    for (std::uint32_t p = 0; p < 16; ++p) {
      workload::HotSpotSource<FetchAdd>::Params params;
      params.total = 100;
      params.hot_fraction = 0.7;
      params.addr_space = 128;
      src.push_back(std::make_unique<workload::HotSpotSource<FetchAdd>>(
          params, [](util::Xoshiro256& r) { return FetchAdd(r.below(5)); },
          40 + p));
    }
    Machine<FetchAdd> m(cfg, std::move(src));
    ASSERT_TRUE(m.run(1000000));
    std::uint64_t services = 0;
    std::uint64_t module_combines = 0;
    for (std::uint32_t i = 0; i < m.module_count(); ++i) {
      services += m.module(i).stats().rmw_ops;
      module_combines += m.module(i).stats().queue_combines;
    }
    EXPECT_EQ(module_combines > 0, module_combining);
    EXPECT_EQ(m.completed().size(), m.stats().combines + services);
    EXPECT_EQ(m.combine_log().size(), m.stats().combines);
  }
}

// --- §7 bus-FIFO combining at the memory module -------------------------------

TEST(Machine, ModuleQueueCombiningAloneIsCorrectAndFaster) {
  auto run_with = [](bool module_combining) {
    MachineConfig<FetchAdd> cfg;
    cfg.log2_procs = 4;
    cfg.switch_cfg.policy = net::CombinePolicy::kNone;
    cfg.mem_cfg.combine_in_queue = module_combining;
    // A slow interleaved bank (4 cycles/service): arrivals pile up in the
    // FIFO, which is where §7's queue combining earns its keep.
    cfg.mem_cfg.service_interval = 4;
    SourceVec<FetchAdd> src;
    for (std::uint32_t p = 0; p < 16; ++p) {
      src.push_back(std::make_unique<workload::SingleAddressSource<FetchAdd>>(
          3, 64, [](util::Xoshiro256&) { return FetchAdd(1); }, p));
    }
    Machine<FetchAdd> m(cfg, std::move(src));
    EXPECT_TRUE(m.run(1000000));
    EXPECT_EQ(m.value_at(3), 1024u);
    EXPECT_TRUE(verify::check_machine(m, 0).ok);
    return std::pair{m.stats().cycles, m.module(3).stats().rmw_ops};
  };
  const auto [cycles_on, services_on] = run_with(true);
  const auto [cycles_off, services_off] = run_with(false);
  // Queue combining folds hot requests: fewer bank services, fewer cycles.
  EXPECT_EQ(services_off, 1024u);
  EXPECT_LT(services_on, services_off);
  EXPECT_LT(cycles_on, cycles_off);
}

// --- fences (§3.2, the RP3 fence instruction) -------------------------------

TEST(Machine, FenceDrainsBeforeNextIssue) {
  // P0 stores to two DIFFERENT locations with a fence between: the fence
  // guarantees the first store is performed before the second is issued,
  // so any observer reading location B == 1 afterwards must also see A == 1
  // (the repair of the Collier example).
  MachineConfig<LssOp> cfg;
  cfg.log2_procs = 2;
  cfg.window = 8;
  SourceVec<LssOp> src;
  for (std::uint32_t p = 0; p < 4; ++p) {
    std::deque<workload::ScriptedSource<LssOp>::Item> items;
    if (p == 0) {
      items.push_back({0, 100, LssOp::store(1)});
      items.push_back({0, 200, LssOp::store(1), /*fence_before=*/true});
    }
    src.push_back(
        std::make_unique<workload::ScriptedSource<LssOp>>(std::move(items)));
  }
  Machine<LssOp> m(cfg, std::move(src));
  ASSERT_TRUE(m.run(10000));
  ASSERT_EQ(m.completed().size(), 2u);
  // With the fence, the store to 100 must have completed strictly before
  // the store to 200 was issued.
  const auto& a = m.completed()[0];
  const auto& b = m.completed()[1];
  const auto& first = a.addr == 100 ? a : b;
  const auto& second = a.addr == 100 ? b : a;
  EXPECT_LE(first.completed, second.issued);
  EXPECT_TRUE(verify::check_machine(m, 0).ok);
}

// --- heterogeneous operation streams (AnyRmw) --------------------------------

TEST(Machine, MixedFamiliesVerifyWithPartialCombining) {
  using krs::core::AnyRmw;
  using krs::core::BoolVec;
  MachineConfig<AnyRmw> cfg;
  cfg.log2_procs = 3;
  SourceVec<AnyRmw> src;
  for (std::uint32_t p = 0; p < 8; ++p) {
    workload::HotSpotSource<AnyRmw>::Params params;
    params.total = 50;
    params.hot_fraction = 0.5;
    params.hot_addr = 5;
    params.addr_space = 64;
    src.push_back(std::make_unique<workload::HotSpotSource<AnyRmw>>(
        params,
        [](util::Xoshiro256& r) -> AnyRmw {
          switch (r.below(5)) {
            case 0:
              return AnyRmw(FetchAdd(r.below(100)));
            case 1:
              return AnyRmw(LssOp::load());
            case 2:
              return AnyRmw(LssOp::swap(r.below(100)));
            case 3:
              return AnyRmw(BoolVec::masked_store(r.next(), 0xFFu));
            default:
              return AnyRmw(krs::core::FetchOr(r.below(16)));
          }
        },
        300 + p));
  }
  Machine<AnyRmw> m(cfg, std::move(src));
  ASSERT_TRUE(m.run(2000000));
  ASSERT_EQ(m.completed().size(), 400u);
  // Same-family requests may combine; cross-family ones are declined —
  // either way the run must serialize.
  const auto res = verify::check_machine(m, 0);
  EXPECT_TRUE(res.ok) << res.error;
}

// --- processor-side baseline ----------------------------------------------

TEST(Machine, ProcessorSideRmwIsAtomicButSlower) {
  auto run_style = [](bool processor_side) {
    MachineConfig<FetchAdd> cfg;
    cfg.log2_procs = 3;
    cfg.processor_side_rmw = processor_side;
    SourceVec<FetchAdd> src;
    for (std::uint32_t p = 0; p < 8; ++p) {
      src.push_back(std::make_unique<workload::SingleAddressSource<FetchAdd>>(
          3, 16, [](util::Xoshiro256&) { return FetchAdd(1); }, p));
    }
    Machine<FetchAdd> m(cfg, std::move(src));
    EXPECT_TRUE(m.run(1000000));
    EXPECT_EQ(m.value_at(3), 128u);  // atomicity: no lost updates
    std::set<Word> replies;
    for (const auto& op : m.completed()) replies.insert(op.reply);
    EXPECT_EQ(replies.size(), 128u);  // distinct tickets
    return m.stats().cycles;
  };
  const auto memory_side = run_style(false);
  const auto processor_side = run_style(true);
  EXPECT_LT(memory_side, processor_side);
}

// --- pipelining ------------------------------------------------------------

TEST(Machine, WindowPipeliningOverlapsRequests) {
  auto run_window = [](unsigned window) {
    MachineConfig<FetchAdd> cfg;
    cfg.log2_procs = 3;
    cfg.window = window;
    SourceVec<FetchAdd> src;
    for (std::uint32_t p = 0; p < 8; ++p) {
      typename workload::HotSpotSource<FetchAdd>::Params params;
      params.total = 64;
      params.hot_fraction = 0.0;
      params.addr_space = 4096;
      src.push_back(std::make_unique<workload::HotSpotSource<FetchAdd>>(
          params, [](util::Xoshiro256&) { return FetchAdd(1); }, 31 + p));
    }
    Machine<FetchAdd> m(cfg, std::move(src));
    EXPECT_TRUE(m.run(1000000));
    EXPECT_TRUE(verify::check_machine(m, 0).ok);
    return m.stats().cycles;
  };
  // Deep pipelining of memory accesses masks latency (§3.2).
  EXPECT_LT(run_window(8), run_window(1));
}

}  // namespace
