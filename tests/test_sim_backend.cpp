// The sim backend proper: cells as addresses in the cycle-accurate Omega
// machine, RMWs as combinable packets, costs in paper units.
//
//  * run_wave is run_traffic over one-shot sources — the same wave
//    sequence produces identical priors AND identical accounting through
//    either driver, which is what lets bench_coordination's wave rows
//    and scenario rows share one host-independent cost model;
//  * the §4.2 claim in miniature: a full wave of same-cell fetch-adds
//    combines in the switches (combines > 0) and hands out exactly the
//    tickets 0..N-1;
//  * per-cell and per-backend accounting (ops, latency, combines);
//  * compare_exchange serialization at the module: counted separately,
//    linearized against network traffic, expected-reload semantics.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "core/any_rmw.hpp"
#include "core/fetch_theta.hpp"
#include "core/load_store_swap.hpp"
#include "runtime/sim_backend.hpp"
#include "util/rng.hpp"
#include "workload/workloads.hpp"

namespace {

using namespace krs::runtime;
using krs::core::AnyRmw;
using krs::core::FetchAdd;
using krs::core::FetchMax;
using krs::core::FetchOr;
using krs::core::LssOp;

TEST(SimBackend, WaveTicketsAndCombining) {
  SimBackend b(SimBackendConfig{.log2_procs = 3});
  SimBackend::Cell cell(b, 0);
  std::vector<Word> priors;
  for (unsigned w = 0; w < 5; ++w) {
    std::vector<SimBackend::WaveOp> wave(
        8, SimBackend::WaveOp{&cell, AnyRmw(FetchAdd(1))});
    const auto replies = b.run_wave(wave);
    // Each wave's 8 simultaneous adds hand out the next 8 tickets, in
    // some decombination order.
    const std::set<Word> got(replies.begin(), replies.end());
    EXPECT_EQ(got.size(), 8u);
    EXPECT_EQ(*got.begin(), static_cast<Word>(8 * w));
    EXPECT_EQ(*got.rbegin(), static_cast<Word>(8 * w + 7));
    priors.insert(priors.end(), replies.begin(), replies.end());
  }
  EXPECT_EQ(b.load(cell), 40u);

  const SimBackendStats st = b.stats();
  EXPECT_EQ(st.network_ops, 41u);  // 40 adds + the final load
  EXPECT_EQ(st.root_serialized_ops, 0u);
  // Simultaneous same-address packets MUST meet in the switches: this is
  // the §4.2 mechanism the backend exists to measure.
  EXPECT_GT(st.combines, 0u);
  EXPECT_GT(st.cycles_per_op(), 0.0);
  EXPECT_GT(st.mean_latency(), 0.0);

  const SimCellStats cs = b.cell_stats(cell);
  EXPECT_EQ(cs.ops, 41u);
  EXPECT_GT(cs.mean_latency(), 0.0);
}

// A source that issues one op on its first poll and keeps the reply —
// what a run_wave op is, built outside the backend.
struct OneShotSource final : krs::proc::TrafficSource<AnyRmw> {
  OneShotSource(krs::core::Addr a, AnyRmw m) : addr(a), op(std::move(m)) {}
  std::optional<std::pair<krs::core::Addr, AnyRmw>> next(
      krs::core::Tick, unsigned) override {
    issued = true;
    return std::make_pair(addr, op);
  }
  [[nodiscard]] bool finished() const override { return issued; }
  void on_complete(krs::core::ReqId, const Word& old_value,
                   krs::core::Tick) override {
    reply = old_value;
  }
  krs::core::Addr addr;
  AnyRmw op;
  bool issued = false;
  Word reply = 0;
};

TEST(SimBackend, WavesMatchOneShotTraffic) {
  // The same 64 mixed waves — two cells, adds, ors, maxes, loads, stores
  // and swaps, 1..8 ops each — on two fresh n = 8 backends: one through
  // run_wave, one through run_traffic with a one-shot source per op.
  // Priors, backend stats and both cells' stats must agree exactly.
  struct Op {
    unsigned cell;
    AnyRmw rmw;
  };
  krs::util::Xoshiro256 rng(0x3a7e);
  const auto random_op = [&rng] {
    const Word v = rng.next() % 1000;
    switch (rng.next() % 6) {
      case 0: return AnyRmw(FetchAdd(v));
      case 1: return AnyRmw(FetchOr(Word{1} << (v % 64)));
      case 2: return AnyRmw(FetchMax(v));
      case 3: return AnyRmw(LssOp::load());
      case 4: return AnyRmw(LssOp::store(v));
      default: return AnyRmw(LssOp::swap(v));
    }
  };
  std::vector<std::vector<Op>> waves(64);
  for (auto& wave : waves) {
    const auto size = 1 + rng.next() % 8;
    for (std::uint64_t i = 0; i < size; ++i) {
      const auto cell = static_cast<unsigned>(rng.next() % 2);
      wave.push_back({cell, random_op()});
    }
  }

  const SimBackendConfig cfg{.log2_procs = 3};
  SimBackend by_wave(cfg);
  SimBackend by_traffic(cfg);
  const SimBackend::Cell wave_cells[2] = {{by_wave, 3}, {by_wave, 40}};
  const SimBackend::Cell traffic_cells[2] = {{by_traffic, 3},
                                             {by_traffic, 40}};
  std::vector<Word> wave_priors;
  std::vector<Word> traffic_priors;
  for (const auto& wave : waves) {
    std::vector<SimBackend::WaveOp> ops;
    std::vector<OneShotSource> shots;
    shots.reserve(wave.size());
    std::vector<krs::proc::TrafficSource<AnyRmw>*> sources;
    for (const Op& op : wave) {
      ops.push_back({&wave_cells[op.cell], op.rmw});
      shots.emplace_back(traffic_cells[op.cell].addr, op.rmw);
      sources.push_back(&shots.back());
    }
    const auto replies = by_wave.run_wave(ops);
    wave_priors.insert(wave_priors.end(), replies.begin(), replies.end());
    (void)by_traffic.run_traffic(sources);
    for (const auto& shot : shots) traffic_priors.push_back(shot.reply);
  }
  EXPECT_EQ(wave_priors, traffic_priors);

  const SimBackendStats a = by_wave.stats();
  const SimBackendStats b = by_traffic.stats();
  EXPECT_GT(a.combines, 0u);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.network_ops, b.network_ops);
  EXPECT_EQ(a.combines, b.combines);
  EXPECT_EQ(a.latency_cycles, b.latency_cycles);
  for (unsigned c = 0; c < 2; ++c) {
    const SimCellStats x = by_wave.cell_stats(wave_cells[c]);
    const SimCellStats y = by_traffic.cell_stats(traffic_cells[c]);
    EXPECT_GT(x.ops, 0u);
    EXPECT_EQ(x.ops, y.ops) << "cell " << c;
    EXPECT_EQ(x.latency_cycles, y.latency_cycles) << "cell " << c;
  }
}

TEST(SimBackend, DistinctCellsLandOnDistinctModules) {
  // Sequential allocation interleaves addresses across the n memory
  // banks, so a two-cell wave is conflict-free traffic.
  SimBackend b(SimBackendConfig{.log2_procs = 2});
  SimBackend::Cell a(b, 5);
  SimBackend::Cell c(b, 50);
  EXPECT_NE(a.addr % 4, c.addr % 4);
  std::vector<SimBackend::WaveOp> wave{
      {&a, AnyRmw(FetchAdd(1))},
      {&c, AnyRmw(FetchAdd(1))},
      {&a, AnyRmw(FetchAdd(1))},
      {&c, AnyRmw(FetchAdd(1))},
  };
  const auto replies = b.run_wave(wave);
  EXPECT_EQ(std::set<Word>(replies.begin(), replies.end()),
            (std::set<Word>{5, 6, 50, 51}));
  EXPECT_EQ(b.load(a), 7u);
  EXPECT_EQ(b.load(c), 52u);
}

TEST(SimBackend, MixedFamilyWaveDeclinesButStaysCorrect) {
  // Adds and ors in one wave: cross-family pairs decline in the switches
  // (§7 partial combining) yet the final value decomposes exactly.
  SimBackend b(SimBackendConfig{.log2_procs = 2});
  SimBackend::Cell cell(b, 0);
  std::vector<SimBackend::WaveOp> wave{
      {&cell, AnyRmw(FetchAdd(1))},
      {&cell, AnyRmw(FetchOr(Word{1} << 48))},
      {&cell, AnyRmw(FetchAdd(1))},
      {&cell, AnyRmw(FetchOr(Word{1} << 49))},
  };
  (void)b.run_wave(wave);
  const Word fin = b.load(cell);
  EXPECT_EQ(fin & ((Word{1} << 48) - 1), 2u);
  EXPECT_EQ(fin >> 48, 3u);
}

TEST(SimBackend, CompareExchangeSerializesAtModule) {
  SimBackend b(SimBackendConfig{.log2_procs = 2});
  SimBackend::Cell cell(b, 10);
  Word expect = 11;
  EXPECT_FALSE(b.compare_exchange(cell, expect, 99));
  EXPECT_EQ(expect, 10u);  // reloaded from the module's serial state
  EXPECT_TRUE(b.compare_exchange(cell, expect, 99));
  EXPECT_EQ(b.load(cell), 99u);

  const SimBackendStats st = b.stats();
  EXPECT_EQ(st.root_serialized_ops, 2u);
  EXPECT_EQ(st.network_ops, 1u);  // only the load traveled
  // The serialized path is charged simulated time too — a CAS-heavy
  // phase advances the clock instead of freezing it.
  EXPECT_GE(st.cycles, 2 * (2 * 2 + 1));
}

// --- generator-driven traffic (run_traffic) ----------------------------------

TEST(SimBackend, RunTrafficDrivesGeneratorsDeterministically) {
  // One hot cell, one HotSpotSource per simulated processor: every
  // issued add must land (conservation), every completion must be
  // timed (latency reservoir count == ops), and the whole run — cycle
  // count included — must be bit-identical on a replay with the same
  // seeds, because the machine and the generators are both deterministic.
  const auto run = [] {
    SimBackend b(SimBackendConfig{.log2_procs = 2});
    SimBackend::Cell cell(b, 0);
    std::vector<std::unique_ptr<krs::workload::HotSpotSource<AnyRmw>>> srcs;
    std::vector<krs::proc::TrafficSource<AnyRmw>*> gens;
    for (std::uint32_t p = 0; p < b.processors(); ++p) {
      krs::workload::HotSpotSource<AnyRmw>::Params wp;
      wp.total = 32;
      wp.hot_fraction = 1.0;  // all traffic to the one cell
      wp.addr_space = 1;
      srcs.push_back(std::make_unique<krs::workload::HotSpotSource<AnyRmw>>(
          wp, [](krs::util::Xoshiro256&) { return AnyRmw(FetchAdd(1)); },
          0x5eed + p));
      gens.push_back(srcs.back().get());
    }
    auto result = b.run_traffic(gens);
    return std::make_tuple(result.cycles, result.ops,
                           result.latency.count(),
                           result.latency.percentile(0.5),
                           result.latency.percentile(0.99), b.load(cell));
  };
  const auto first = run();
  EXPECT_EQ(std::get<1>(first), 4u * 32u);       // every op completed
  EXPECT_EQ(std::get<2>(first), 4u * 32u);       // every op timed
  EXPECT_EQ(std::get<5>(first), Word{4} * 32u);  // conservation
  EXPECT_GT(std::get<0>(first), krs::core::Tick{0});
  EXPECT_GT(std::get<3>(first), 0.0);  // through the network: latency ≥ 1
  EXPECT_EQ(run(), first);             // bit-identical replay
}

TEST(SimBackend, RunTrafficClosedLoopSelfLimitsAndFinishes) {
  // Closed-loop sources couple their issue rate to the machine's service
  // time (window 1 per processor + think): the run still terminates with
  // every op issued, completed, and accounted.
  SimBackend b(SimBackendConfig{.log2_procs = 2});
  SimBackend::Cell cell(b, 0);
  std::vector<std::unique_ptr<krs::workload::ClosedLoopSource<AnyRmw>>> srcs;
  std::vector<krs::proc::TrafficSource<AnyRmw>*> gens;
  for (std::uint32_t p = 0; p < b.processors(); ++p) {
    krs::workload::ClosedLoopSource<AnyRmw>::Params wp;
    wp.total = 24;
    wp.clients = 3;
    wp.think_mean = 8.0;
    srcs.push_back(std::make_unique<krs::workload::ClosedLoopSource<AnyRmw>>(
        wp, [](krs::util::Xoshiro256&) { return AnyRmw(FetchAdd(1)); },
        0xc105ed + p));
    gens.push_back(srcs.back().get());
  }
  const auto result = b.run_traffic(gens);
  EXPECT_EQ(result.ops, 4u * 24u);
  EXPECT_EQ(b.load(cell), Word{4} * 24u);
  for (const auto& s : srcs) {
    EXPECT_TRUE(s->finished());
    EXPECT_EQ(s->stats().completed, 24u);
  }
}

TEST(SimBackend, RunTrafficHorizonDrainsInFlightOps) {
  // A cycle budget far below what the offered load needs: the run stops
  // near the horizon, drains whatever was in flight (no lost replies —
  // ops equals the cell's delta), and reports fewer ops than offered.
  SimBackend b(SimBackendConfig{.log2_procs = 2});
  SimBackend::Cell cell(b, 0);
  std::vector<std::unique_ptr<krs::workload::BurstySource<AnyRmw>>> srcs;
  std::vector<krs::proc::TrafficSource<AnyRmw>*> gens;
  for (std::uint32_t p = 0; p < b.processors(); ++p) {
    krs::workload::BurstySource<AnyRmw>::Params wp;
    wp.total = 1u << 20;  // effectively unbounded
    wp.hot_fraction = 1.0;
    wp.addr_space = 1;
    wp.rate = 0.5;
    srcs.push_back(std::make_unique<krs::workload::BurstySource<AnyRmw>>(
        wp, [](krs::util::Xoshiro256&) { return AnyRmw(FetchAdd(1)); },
        0xb0b0 + p));
    gens.push_back(srcs.back().get());
  }
  const auto result = b.run_traffic(gens, /*max_cycles=*/512);
  EXPECT_GT(result.ops, 0u);
  EXPECT_LT(result.ops, std::uint64_t{4} << 20);
  EXPECT_GE(result.cycles, krs::core::Tick{512});
  EXPECT_EQ(b.load(cell), result.ops);  // drained: nothing lost in flight
  EXPECT_EQ(result.latency.count(), result.ops);
}

TEST(SimBackend, ThreadedInjectionMatchesWaveSemantics) {
  // The mailbox path used by live threads (tested at scale in
  // test_backends.cpp): a single-threaded caller still goes through
  // inject(), and the swap chain conserves values end to end.
  SimBackend b(SimBackendConfig{.log2_procs = 2});
  SimBackend::Cell cell(b, 7);
  EXPECT_EQ(b.exchange(cell, 21), 7u);
  EXPECT_EQ(b.fetch_rmw(cell, AnyRmw(LssOp::swap(9))), 21u);
  b.store(cell, 123);
  EXPECT_EQ(b.load(cell), 123u);
  const SimBackendStats st = b.stats();
  EXPECT_EQ(st.network_ops, 4u);
}

}  // namespace
