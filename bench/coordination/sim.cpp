// bench_coordination's sim rows (E17): BM_SimCoordination/* on the
// simulated Omega machine, in network cycles per operation.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/any_rmw.hpp"
#include "core/fetch_theta.hpp"
#include "core/load_store_swap.hpp"
#include "net/switch.hpp"
#include "runtime/sim_backend.hpp"
#include "util/stats.hpp"
#include "workload/workloads.hpp"

using namespace krs::runtime;

namespace {

// Each primitive's hot-path RMW pattern on the simulated Omega machine
// (n = 8 processors), injected as full waves so the cost is deterministic.
// Reported counters are PAPER UNITS:
//   cycles_per_op       — network cycles per completed RMW (cf. the §6
//                         O(lg n) claims; one uncontended round trip on
//                         this machine is 2·lg n + 1 + memory latency)
//   combine_rate        — switch combine events per network op (§4.2)
//   mean_latency_cycles — mean issue→reply latency
//   sim_cycles          — total simulated cycles (scales with iterations)

using krs::core::AnyRmw;
using krs::core::FetchAdd;
using krs::core::LssOp;

constexpr unsigned kSimLogProcs = 3;  // n = 8

SimBackend make_sim_backend() {
  return SimBackend(SimBackendConfig{.log2_procs = kSimLogProcs});
}

std::vector<SimBackend::WaveOp> full_wave(const SimBackend& b,
                                          const SimBackend::Cell& cell,
                                          const AnyRmw& op) {
  return std::vector<SimBackend::WaveOp>(b.processors(),
                                         SimBackend::WaveOp{&cell, op});
}

void report_sim_counters(benchmark::State& state, const SimBackend& b) {
  const SimBackendStats st = b.stats();
  state.counters["cycles_per_op"] = st.cycles_per_op();
  state.counters["combine_rate"] = st.combine_rate();
  state.counters["mean_latency_cycles"] = st.mean_latency();
  state.counters["sim_cycles"] = static_cast<double>(st.cycles);
  state.SetItemsProcessed(static_cast<std::int64_t>(st.ops()));
}

void BM_SimCounter(benchmark::State& state) {
  // The hotspot counter: every processor fetch-adds the same cell at once.
  SimBackend b = make_sim_backend();
  SimBackend::Cell cell(b, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.run_wave(full_wave(b, cell, AnyRmw(FetchAdd(1)))));
  }
  report_sim_counters(state, b);
}
BENCHMARK(BM_SimCounter)->Name("BM_SimCoordination/counter");

void BM_SimBarrier(benchmark::State& state) {
  // One barrier episode: all n increment the arrival count, all n read the
  // phase word while waiting, the last arriver advances the phase.
  SimBackend b = make_sim_backend();
  SimBackend::Cell count(b, 0);
  SimBackend::Cell phase(b, 0);
  for (auto _ : state) {
    (void)b.run_wave(full_wave(b, count, AnyRmw(FetchAdd(1))));
    (void)b.run_wave(full_wave(b, phase, AnyRmw(LssOp::load())));
    (void)b.run_wave({{&phase, AnyRmw(FetchAdd(1))}});
  }
  report_sim_counters(state, b);
}
BENCHMARK(BM_SimBarrier)->Name("BM_SimCoordination/barrier");

void BM_SimRwLock(benchmark::State& state) {
  // Read-mostly acquire/release: all n join the reader count, all n leave.
  // (The writer path is the same fetch-add traffic on the same word with a
  // writer-weight operand, so the reader wave is the cost-carrying shape.)
  SimBackend b = make_sim_backend();
  SimBackend::Cell word(b, 0);
  for (auto _ : state) {
    (void)b.run_wave(full_wave(b, word, AnyRmw(FetchAdd(1))));
    (void)b.run_wave(full_wave(b, word, AnyRmw(FetchAdd(Word(0) - 1))));
  }
  report_sim_counters(state, b);
}
BENCHMARK(BM_SimRwLock)->Name("BM_SimCoordination/rwlock");

void BM_SimSemaphore(benchmark::State& state) {
  // P then V from every processor: decrement wave, increment wave.
  SimBackend b = make_sim_backend();
  SimBackend::Cell sem(b, 8);
  for (auto _ : state) {
    (void)b.run_wave(full_wave(b, sem, AnyRmw(FetchAdd(Word(0) - 1))));
    (void)b.run_wave(full_wave(b, sem, AnyRmw(FetchAdd(1))));
  }
  report_sim_counters(state, b);
}
BENCHMARK(BM_SimSemaphore)->Name("BM_SimCoordination/semaphore");

void BM_SimQueue(benchmark::State& state) {
  // The parallel FIFO's traffic: a tail-ticket wave (hot), one swap per
  // processor into its own slot (conflict-free), then a head-ticket wave.
  SimBackend b = make_sim_backend();
  SimBackend::Cell tail(b, 0);
  SimBackend::Cell head(b, 0);
  std::vector<std::unique_ptr<SimBackend::Cell>> slots;  // cells don't move
  for (std::uint32_t p = 0; p < b.processors(); ++p) {
    slots.push_back(std::make_unique<SimBackend::Cell>(b, 0));
  }
  for (auto _ : state) {
    (void)b.run_wave(full_wave(b, tail, AnyRmw(FetchAdd(1))));
    std::vector<SimBackend::WaveOp> deposit;
    for (std::uint32_t p = 0; p < b.processors(); ++p) {
      deposit.push_back({slots[p].get(), AnyRmw(LssOp::swap(p + 1))});
    }
    (void)b.run_wave(deposit);
    (void)b.run_wave(full_wave(b, head, AnyRmw(FetchAdd(1))));
  }
  report_sim_counters(state, b);
}
BENCHMARK(BM_SimQueue)->Name("BM_SimCoordination/queue");

// --- stochastic arrival scenarios (the workload dimension) ------------------
//
// The wave rows above cost the primitives under SIMULTANEOUS arrivals —
// the §4.2 best case. These rows cost a larger machine under the paper's
// stochastic arrival models instead, via SimBackend::run_traffic: each
// simulated processor is fed by a src/workload generator (hot-spot
// mixture, on/off bursty, closed-loop with think times), so cycles_per_op
// gains a `scenario` dimension and the per-op latency distribution comes
// out in machine cycles (latency_p50/p99_cycles). Deterministic like the
// waves: fixed seeds, fixed poll order.
//
// The machine has n = 64 processors, and each row runs with the switches'
// combining off and on (`combine` = 0/1). With one op in flight per
// processor, an 8-processor machine never queues at the hot module, so
// hot-spot and uniform traffic read the same cycles_per_op there even
// without combining. At 64 the hot module queues: without combining the
// hot-spot row costs about 3× the uniform one, and combining brings it
// back to the uniform floor (§4.2's claim). The latency percentiles come
// from util::LogHistogram, so they resolve only to power-of-two buckets.

constexpr unsigned kScenarioLogProcs = 6;  // n = 64

SimBackend make_scenario_backend(benchmark::State& state) {
  krs::net::SwitchConfig sw;
  sw.policy = state.range(0) != 0 ? krs::net::CombinePolicy::kUnlimited
                                  : krs::net::CombinePolicy::kNone;
  return SimBackend(
      SimBackendConfig{.log2_procs = kScenarioLogProcs, .switch_cfg = sw});
}

template <typename MakeSource>
void sim_scenario_loop(benchmark::State& state, MakeSource make_source) {
  std::uint64_t ops = 0;
  std::uint64_t cycles = 0;
  SimBackendStats combining;  // combines and network_ops, summed
  krs::util::LogHistogram lat;
  for (auto _ : state) {
    // A fresh machine per iteration, so every iteration runs the same
    // traffic and every counter below is a function of the code alone,
    // not of the iteration count the timer picks.
    SimBackend b = make_scenario_backend(state);
    std::vector<std::unique_ptr<SimBackend::Cell>> cells;  // cells don't move
    for (unsigned i = 0; i < 8; ++i) {
      cells.push_back(std::make_unique<SimBackend::Cell>(b, 0));
    }
    std::vector<std::unique_ptr<krs::proc::TrafficSource<AnyRmw>>> sources;
    std::vector<krs::proc::TrafficSource<AnyRmw>*> generators;
    for (std::uint32_t p = 0; p < b.processors(); ++p) {
      sources.push_back(make_source(p));
      generators.push_back(sources.back().get());
    }
    const SimBackend::TrafficResult res = b.run_traffic(generators, 1 << 20);
    ops += res.ops;
    cycles += res.cycles;
    // One run's histogram: merging n identical copies would shift the
    // interpolated percentiles with n (the mid-sample rule's half rank).
    lat = res.latency;
    const SimBackendStats st = b.stats();
    combining.combines += st.combines;
    combining.network_ops += st.network_ops;
  }
  state.counters["cycles_per_op"] =
      ops > 0 ? static_cast<double>(cycles) / static_cast<double>(ops) : 0.0;
  state.counters["latency_p50_cycles"] = lat.percentile(0.50);
  state.counters["latency_p99_cycles"] = lat.percentile(0.99);
  state.counters["combine_rate"] = combining.combine_rate();
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}

constexpr std::uint64_t kScenarioOpsPerProc = 256;

AnyRmw make_add(krs::util::Xoshiro256&) { return AnyRmw(FetchAdd(1)); }

void BM_SimScenarioHotspot(benchmark::State& state) {
  // 90% of arrivals hit cell 0, full rate: the Pfister–Norton mixture.
  sim_scenario_loop(state, [](std::uint32_t p) {
    return std::make_unique<krs::workload::HotSpotSource<AnyRmw>>(
        krs::workload::HotSpotSource<AnyRmw>::Params{
            .total = kScenarioOpsPerProc, .hot_fraction = 0.9,
            .hot_addr = 0, .addr_space = 8},
        make_add, 0x5eed0000u + p);
  });
}
BENCHMARK(BM_SimScenarioHotspot)
    ->Name("BM_SimCoordination/scenario_hotspot")
    ->ArgNames({"combine"})->Arg(0)->Arg(1);

void BM_SimScenarioUniform(benchmark::State& state) {
  // h = 0: uniform traffic across all eight cells, the contention floor.
  sim_scenario_loop(state, [](std::uint32_t p) {
    return std::make_unique<krs::workload::HotSpotSource<AnyRmw>>(
        krs::workload::HotSpotSource<AnyRmw>::Params{
            .total = kScenarioOpsPerProc, .hot_fraction = 0.0,
            .hot_addr = 0, .addr_space = 8},
        make_add, 0x5eed1000u + p);
  });
}
BENCHMARK(BM_SimScenarioUniform)
    ->Name("BM_SimCoordination/scenario_uniform")
    ->ArgNames({"combine"})->Arg(0)->Arg(1);

void BM_SimScenarioBursty(benchmark::State& state) {
  // On/off arrivals, thinned to half rate inside a burst: mean load is
  // modest but the ON-period spikes queue at the hot module — the shape
  // that separates the latency tail from the throughput mean.
  sim_scenario_loop(state, [](std::uint32_t p) {
    return std::make_unique<krs::workload::BurstySource<AnyRmw>>(
        krs::workload::BurstySource<AnyRmw>::Params{
            .total = kScenarioOpsPerProc, .hot_fraction = 0.9,
            .hot_addr = 0, .addr_space = 8, .rate = 0.5,
            .mean_on = 64.0, .mean_off = 64.0},
        make_add, 0x5eed2000u + p);
  });
}
BENCHMARK(BM_SimScenarioBursty)
    ->Name("BM_SimCoordination/scenario_bursty")
    ->ArgNames({"combine"})->Arg(0)->Arg(1);

void BM_SimScenarioClosed(benchmark::State& state) {
  // Four logical clients per processor, exponential think times: offered
  // load self-limits with the machine's service time.
  sim_scenario_loop(state, [](std::uint32_t p) {
    return std::make_unique<krs::workload::ClosedLoopSource<AnyRmw>>(
        krs::workload::ClosedLoopSource<AnyRmw>::Params{
            .total = kScenarioOpsPerProc, .clients = 4, .think_mean = 16.0,
            .hot_fraction = 0.9, .hot_addr = 0, .addr_space = 8},
        make_add, 0x5eed3000u + p);
  });
}
BENCHMARK(BM_SimScenarioClosed)
    ->Name("BM_SimCoordination/scenario_closed")
    ->ArgNames({"combine"})->Arg(0)->Arg(1);

void BM_SimCounterScale(benchmark::State& state) {
  // The counter hotspot swept over machine size k ∈ {6, 8, 10}
  // (n = 64 … 1024 processors) × combine policy on/off. With combining
  // disabled the switches forward every request unmerged and the hot
  // module serializes all n, so a processor's issue→reply latency grows
  // LINEARLY in n (mean_latency_cycles ≈ n/2 + network transit — the §1
  // hot-spot cost); with it on, requests merge in lg n stages and the
  // latency stays at the 2·lg n + O(1) pipe while cycles_per_op drops by
  // the absorbed fraction. The normalized series rows
  // "counter_scale/k=K/combine={0,1}" pin both curves; §4.2's claim is
  // their widening gap as k grows.
  const auto k = static_cast<unsigned>(state.range(0));
  const bool combine = state.range(1) != 0;
  krs::net::SwitchConfig sw;
  sw.policy = combine ? krs::net::CombinePolicy::kUnlimited
                      : krs::net::CombinePolicy::kNone;
  SimBackend b(SimBackendConfig{.log2_procs = k, .switch_cfg = sw});
  SimBackend::Cell cell(b, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        b.run_wave(full_wave(b, cell, AnyRmw(FetchAdd(1)))));
  }
  report_sim_counters(state, b);
}
BENCHMARK(BM_SimCounterScale)
    ->Name("BM_SimCoordination/counter_scale")
    ->ArgNames({"k", "combine"})
    ->Args({6, 0})->Args({6, 1})
    ->Args({8, 0})->Args({8, 1})
    ->Args({10, 0})->Args({10, 1});

}  // namespace
