// Determinism suite for the parallel engine (sim/engine.hpp): every
// machine run on the worker-pool engine must be BIT-IDENTICAL to the
// sequential reference — same completed-op transcript, same combine log,
// same per-module serial access order, same clock, same stats — at every
// worker count, for every workload and seed. The suite runs under the MT
// (tsan) label, so the shard-disjointness argument is also checked by the
// sanitizer, not just asserted by the comparison.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <vector>

#include "core/any_rmw.hpp"
#include "core/load_store_swap.hpp"
#include "sim/bus_machine.hpp"
#include "sim/hypercube_machine.hpp"
#include "sim/machine.hpp"
#include "verify/memory_checker.hpp"
#include "workload/workloads.hpp"

namespace {

using namespace krs;
using namespace krs::core;

template <Rmw M>
using SourceVec = std::vector<std::unique_ptr<proc::TrafficSource<M>>>;

constexpr core::Tick kMaxCycles = 500000;

// --- transcript comparison -------------------------------------------------

template <typename MachineT>
void expect_identical(const MachineT& seq, const MachineT& par,
                      const char* what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(seq.now(), par.now());
  const auto& sc = seq.completed();
  const auto& pc = par.completed();
  ASSERT_EQ(sc.size(), pc.size());
  for (std::size_t i = 0; i < sc.size(); ++i) {
    ASSERT_EQ(sc[i].id, pc[i].id) << "completed[" << i << "]";
    ASSERT_EQ(sc[i].addr, pc[i].addr) << "completed[" << i << "]";
    ASSERT_EQ(sc[i].reply, pc[i].reply) << "completed[" << i << "]";
    ASSERT_EQ(sc[i].issued, pc[i].issued) << "completed[" << i << "]";
    ASSERT_EQ(sc[i].completed, pc[i].completed) << "completed[" << i << "]";
  }
  const auto& se = seq.combine_log();
  const auto& pe = par.combine_log();
  ASSERT_EQ(se.size(), pe.size());
  for (std::size_t i = 0; i < se.size(); ++i) {
    ASSERT_EQ(se[i].representative, pe[i].representative) << "event " << i;
    ASSERT_EQ(se[i].absorbed, pe[i].absorbed) << "event " << i;
    ASSERT_EQ(se[i].addr, pe[i].addr) << "event " << i;
    ASSERT_EQ(se[i].reversed, pe[i].reversed) << "event " << i;
  }
  for (std::uint32_t mi = 0; mi < seq.module_count(); ++mi) {
    const auto& sa = seq.module(mi).access_log();
    const auto& pa = par.module(mi).access_log();
    ASSERT_EQ(sa.size(), pa.size()) << "module " << mi;
    for (std::size_t i = 0; i < sa.size(); ++i) {
      ASSERT_EQ(sa[i].addr, pa[i].addr) << "module " << mi << " [" << i << "]";
      ASSERT_EQ(sa[i].id, pa[i].id) << "module " << mi << " [" << i << "]";
    }
  }
}

void expect_identical_stats(const sim::MachineStats& a,
                            const sim::MachineStats& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.ops_completed, b.ops_completed);
  EXPECT_EQ(a.combines, b.combines);
  EXPECT_EQ(a.switch_stall_cycles, b.switch_stall_cycles);
  EXPECT_EQ(a.request_messages, b.request_messages);
  EXPECT_EQ(a.request_bytes, b.request_bytes);
  EXPECT_EQ(a.latency.count(), b.latency.count());
  EXPECT_DOUBLE_EQ(a.latency.mean(), b.latency.mean());
}

// --- workload builders (log2_procs = 4 → 8 column shards) ------------------

sim::Machine<FetchAdd> make_hotspot(std::uint64_t seed) {
  sim::MachineConfig<FetchAdd> cfg;
  cfg.log2_procs = 4;
  cfg.window = 8;
  SourceVec<FetchAdd> src;
  for (std::uint32_t p = 0; p < 16; ++p) {
    workload::HotSpotSource<FetchAdd>::Params params;
    params.total = 120;
    params.hot_fraction = 0.4;
    params.hot_addr = 7;
    params.addr_space = 256;
    src.push_back(std::make_unique<workload::HotSpotSource<FetchAdd>>(
        params,
        [](util::Xoshiro256& r) { return FetchAdd(r.below(100)); },
        seed * 7919 + p));
  }
  return {cfg, std::move(src)};
}

sim::Machine<LssOp> make_lss(std::uint64_t seed) {
  sim::MachineConfig<LssOp> cfg;
  cfg.log2_procs = 4;
  cfg.window = 6;
  cfg.switch_cfg.allow_order_reversal = true;  // exercise §5.1 reversal
  SourceVec<LssOp> src;
  for (std::uint32_t p = 0; p < 16; ++p) {
    workload::HotSpotSource<LssOp>::Params params;
    params.total = 100;
    params.hot_fraction = 0.5;
    params.hot_addr = 3;
    params.addr_space = 128;
    src.push_back(std::make_unique<workload::HotSpotSource<LssOp>>(
        params,
        [](util::Xoshiro256& r) -> LssOp {
          switch (r.below(3)) {
            case 0:
              return LssOp::load();
            case 1:
              return LssOp::store(r.below(50));
            default:
              return LssOp::swap(r.below(50));
          }
        },
        seed * 104729 + p));
  }
  return {cfg, std::move(src)};
}

sim::Machine<AnyRmw> make_mixed(std::uint64_t seed) {
  sim::MachineConfig<AnyRmw> cfg;
  cfg.log2_procs = 4;
  cfg.window = 4;
  SourceVec<AnyRmw> src;
  for (std::uint32_t p = 0; p < 16; ++p) {
    workload::HotSpotSource<AnyRmw>::Params params;
    params.total = 80;
    params.hot_fraction = 0.5;
    params.hot_addr = 5;
    params.addr_space = 64;
    src.push_back(std::make_unique<workload::HotSpotSource<AnyRmw>>(
        params,
        [](util::Xoshiro256& r) -> AnyRmw {
          switch (r.below(4)) {
            case 0:
              return AnyRmw(FetchAdd(r.below(100)));
            case 1:
              return AnyRmw(LssOp::load());
            case 2:
              return AnyRmw(LssOp::swap(r.below(100)));
            default:
              return AnyRmw(FetchOr(r.below(16)));
          }
        },
        seed * 65537 + p));
  }
  return {cfg, std::move(src)};
}

/// Run the sequential reference and each parallel worker count for one
/// builder+seed and require identical transcripts everywhere, plus a
/// checker pass on the widest parallel run.
template <typename Builder>
void run_determinism_case(Builder make, std::uint64_t seed,
                          const char* what) {
  auto seq = make(seed);
  ASSERT_TRUE(seq.run(kMaxCycles));
  const auto seq_stats = seq.stats();
  for (unsigned workers : {1u, 2u, 4u, 8u}) {
    auto par = make(seed);
    ASSERT_TRUE(par.run_parallel(kMaxCycles, workers));
    expect_identical(seq, par, what);
    expect_identical_stats(seq_stats, par.stats());
    if (workers == 8) {
      const auto res = verify::check_machine(par, 0);
      EXPECT_TRUE(res.ok) << res.error;
    }
  }
}

// --- Omega machine ---------------------------------------------------------

TEST(ParallelEngine, HotSpotFetchAddDeterministicAcrossWorkers) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    run_determinism_case(make_hotspot, seed, "hotspot-fetchadd");
  }
}

TEST(ParallelEngine, LssReversalDeterministicAcrossWorkers) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    run_determinism_case(make_lss, seed, "lss-reversal");
  }
}

TEST(ParallelEngine, MixedFamiliesDeterministicAcrossWorkers) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    run_determinism_case(make_mixed, seed, "mixed-anyrmw");
  }
}

// Worker counts that do not divide the shard count exercise the uneven
// static ranges; counts above the shard count must clamp.
TEST(ParallelEngine, OddAndOversubscribedWorkerCountsClamp) {
  auto seq = make_hotspot(11);
  ASSERT_TRUE(seq.run(kMaxCycles));
  for (unsigned workers : {3u, 5u, 7u, 64u}) {
    auto par = make_hotspot(11);
    ASSERT_TRUE(par.run_parallel(kMaxCycles, workers));
    expect_identical(seq, par, "odd-workers");
  }
}

// The per-cycle transcript merge must put shard logs back in shard order:
// the combine log of a parallel run replays through the checker exactly
// like the sequential one (chronological per representative).
TEST(ParallelEngine, ParallelTranscriptPassesChecker) {
  for (std::uint64_t seed : {17u, 23u}) {
    auto par = make_hotspot(seed);
    ASSERT_TRUE(par.run_parallel(kMaxCycles, 4));
    const auto res = verify::check_machine(par, 0);
    EXPECT_TRUE(res.ok) << res.error;
  }
}

// --- hypercube machine -----------------------------------------------------

sim::HypercubeMachine<FetchAdd> make_cube(std::uint64_t seed) {
  sim::HypercubeConfig<FetchAdd> cfg;
  cfg.dimensions = 4;
  cfg.window = 6;
  SourceVec<FetchAdd> src;
  for (std::uint32_t p = 0; p < 16; ++p) {
    workload::HotSpotSource<FetchAdd>::Params params;
    params.total = 80;
    params.hot_fraction = 0.4;
    params.hot_addr = 9;
    params.addr_space = 128;
    src.push_back(std::make_unique<workload::HotSpotSource<FetchAdd>>(
        params,
        [](util::Xoshiro256& r) { return FetchAdd(r.below(10)); },
        seed * 31337 + p));
  }
  return {cfg, std::move(src)};
}

TEST(ParallelEngine, HypercubeDeterministicAcrossWorkers) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    auto seq = make_cube(seed);
    ASSERT_TRUE(seq.run(kMaxCycles));
    for (unsigned workers : {1u, 2u, 4u, 8u}) {
      auto par = make_cube(seed);
      ASSERT_TRUE(par.run_parallel(kMaxCycles, workers));
      expect_identical(seq, par, "hypercube");
    }
    const auto st = seq.stats();
    auto par = make_cube(seed);
    ASSERT_TRUE(par.run_parallel(kMaxCycles, 8));
    const auto pt = par.stats();
    EXPECT_EQ(st.combines, pt.combines);
    EXPECT_EQ(st.hops, pt.hops);
    const auto res = verify::check_machine(par, 0);
    EXPECT_TRUE(res.ok) << res.error;
  }
}

// --- bus machine -----------------------------------------------------------

sim::BusMachine<FetchAdd> make_bus(std::uint64_t seed) {
  sim::BusMachineConfig<FetchAdd> cfg;
  cfg.processors = 16;
  cfg.banks = 4;
  cfg.bank_cfg.service_interval = 3;
  cfg.bank_cfg.combine_in_queue = true;
  cfg.window = 4;
  SourceVec<FetchAdd> src;
  for (std::uint32_t p = 0; p < 16; ++p) {
    workload::HotSpotSource<FetchAdd>::Params params;
    params.total = 60;
    params.hot_fraction = 0.5;
    params.hot_addr = 2;
    params.addr_space = 64;
    src.push_back(std::make_unique<workload::HotSpotSource<FetchAdd>>(
        params,
        [](util::Xoshiro256& r) { return FetchAdd(r.below(10)); },
        seed * 2654435761u + p));
  }
  return {cfg, std::move(src)};
}

TEST(ParallelEngine, BusMachineDeterministicAcrossWorkers) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    auto seq = make_bus(seed);
    ASSERT_TRUE(seq.run(kMaxCycles));
    for (unsigned workers : {1u, 2u, 4u, 8u}) {
      auto par = make_bus(seed);
      ASSERT_TRUE(par.run_parallel(kMaxCycles, workers));
      expect_identical(seq, par, "bus");
    }
  }
}

// --- MachineStats::merge ----------------------------------------------------

TEST(ParallelEngine, MachineStatsMergeMatchesGlobalAccumulation) {
  sim::MachineStats whole;
  whole.cycles = 100;
  sim::MachineStats a;
  a.cycles = 100;
  sim::MachineStats b;
  b.cycles = 100;
  for (std::uint64_t lat = 1; lat <= 60; ++lat) {
    whole.latency.add(lat);
    (lat % 2 == 0 ? a : b).latency.add(lat);
    (lat % 2 == 0 ? a : b).ops_completed++;
    whole.ops_completed++;
  }
  a.combines = 5;
  b.combines = 7;
  whole.combines = 12;
  a.merge(b);
  EXPECT_EQ(a.cycles, whole.cycles);
  EXPECT_EQ(a.ops_completed, whole.ops_completed);
  EXPECT_EQ(a.combines, whole.combines);
  EXPECT_EQ(a.latency.count(), whole.latency.count());
  EXPECT_DOUBLE_EQ(a.latency.mean(), whole.latency.mean());
  EXPECT_DOUBLE_EQ(a.throughput_ops_per_cycle, 0.6);
}

}  // namespace
