// E9 — §5.6 data-level synchronization: the |S| bound on store values
// carried by combined requests (attained by the store-if-state=s family),
// encoding sizes across state-set sizes, composition throughput — and the
// automaton SERVED: BM_DlsProtocol drives the producer/consumer path
// expression through real RMW substrates (guarded ops ack/nack like any
// other AnyRmw member), BM_DlsWave pins the §5.6 wire-budget decline as a
// deterministic partial-combining rate through the tree.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "core/any_rmw.hpp"
#include "core/dls.hpp"
#include "runtime/combining_backend.hpp"
#include "runtime/dls_service.hpp"
#include "runtime/flat_combining.hpp"
#include "runtime/rmw_backend.hpp"
#include "util/rng.hpp"
#include "workload/path_scenarios.hpp"

using namespace krs::core;
namespace rt = krs::runtime;

namespace {

template <unsigned N>
DlsOp<N> random_op(krs::util::Xoshiro256& rng) {
  const auto guard = static_cast<std::uint16_t>(rng.below(1u << N));
  std::array<std::uint8_t, N> next{};
  for (auto& s : next) s = static_cast<std::uint8_t>(rng.below(N));
  if (rng.chance(0.5)) {
    return DlsOp<N>::guarded_store(rng.below(1000), guard, next);
  }
  return DlsOp<N>::guarded_load(guard, next);
}

template <unsigned N>
void bound_sweep() {
  krs::util::Xoshiro256 rng(N);
  unsigned max_vals = 0;
  double sum_vals = 0;
  constexpr int kTrials = 2000;
  for (int t = 0; t < kTrials; ++t) {
    DlsOp<N> acc = DlsOp<N>::identity();
    const int chain = 1 + static_cast<int>(rng.below(20));
    for (int i = 0; i < chain; ++i) acc = compose(acc, random_op<N>(rng));
    max_vals = std::max(max_vals, acc.distinct_store_values());
    sum_vals += acc.distinct_store_values();
  }
  // The worst case: store-if-state=s of distinct values for every state.
  DlsOp<N> worst = DlsOp<N>::identity();
  for (unsigned s = 0; s < N; ++s) {
    std::array<std::uint8_t, N> stay{};
    for (unsigned i = 0; i < N; ++i) stay[i] = static_cast<std::uint8_t>(i);
    worst = compose(worst, DlsOp<N>::guarded_store(
                               1000 + s, static_cast<std::uint16_t>(1u << s),
                               stay));
  }
  std::fprintf(stderr, "%8u | %10u | %10.2f | %14u | %10zu\n", N, max_vals,
              sum_vals / kTrials, worst.distinct_store_values(),
              worst.encoded_size_bytes());
}

void report() {
  std::fprintf(stderr, "== E9: §5.6 — combined requests carry at most |S| store "
              "values ==\n");
  std::fprintf(stderr, "%8s | %10s | %10s | %14s | %10s\n", "|S|", "max seen",
              "mean seen", "worst attained", "enc bytes");
  bound_sweep<2>();
  bound_sweep<4>();
  bound_sweep<8>();
  bound_sweep<16>();
  std::fprintf(stderr, "(\"2^m is the best possible uniform bound\": the worst case "
              "is attained by store-if-state=s ops, and the encoding grows "
              "with |S| — tractable only for small state sets)\n\n");
}

void BM_DlsCompose4(benchmark::State& state) {
  krs::util::Xoshiro256 rng(4);
  const auto f = random_op<4>(rng), g = random_op<4>(rng);
  for (auto _ : state) benchmark::DoNotOptimize(compose(f, g));
}
BENCHMARK(BM_DlsCompose4);

void BM_DlsCompose16(benchmark::State& state) {
  krs::util::Xoshiro256 rng(16);
  const auto f = random_op<16>(rng), g = random_op<16>(rng);
  for (auto _ : state) benchmark::DoNotOptimize(compose(f, g));
}
BENCHMARK(BM_DlsCompose16);

void BM_DlsApply4(benchmark::State& state) {
  krs::util::Xoshiro256 rng(8);
  const auto f = random_op<4>(rng);
  DlsCell c{5, 1};
  for (auto _ : state) benchmark::DoNotOptimize(c = f.apply(c));
}
BENCHMARK(BM_DlsApply4);

// --- the automaton served: BM_DlsProtocol/<substrate> ------------------------
//
// Every thread fires producer/consumer guarded ops (put admitted below
// occupancy 2, get above 0) at ONE shared cell. Unlike fetch-and-add,
// an op can legally fail — the nack_rate counter is the share of issues
// the automaton declined, cumulative over the run like the combine-rate
// counters in bench_flat_vs_tree. The combining/flat rigs additionally
// report their fold shares: §5.6 transitions combine like arithmetic.

const krs::workload::ProducerConsumerPath& protocol() {
  static const krs::workload::ProducerConsumerPath pc;
  return pc;
}

template <typename Host>
void protocol_loop(benchmark::State& state, Host& host) {
  const auto& pc = protocol();
  krs::util::Xoshiro256 rng(0x5eedu + state.thread_index());
  for (auto _ : state) {
    if (rng.chance(0.5)) {
      benchmark::DoNotOptimize(host.issue(pc.put(1 + rng.below(1000))));
    } else {
      benchmark::DoNotOptimize(host.issue(pc.get()));
    }
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    const double acks = static_cast<double>(host.acks());
    const double nacks = static_cast<double>(host.nacks());
    state.counters["nack_rate"] =
        acks + nacks > 0 ? nacks / (acks + nacks) : 0.0;
  }
}

rt::AtomicBackend g_atomic;
rt::CombiningBackend g_tree(8);
rt::FlatCombiningBackend g_flat(8);
rt::DlsHost<rt::AtomicBackend> g_atomic_host(g_atomic, DlsCell{0, 0});
rt::DlsHost<rt::CombiningBackend> g_tree_host(g_tree, DlsCell{0, 0});
rt::DlsHost<rt::FlatCombiningBackend> g_flat_host(g_flat, DlsCell{0, 0});

void BM_DlsProtocolAtomic(benchmark::State& state) {
  protocol_loop(state, g_atomic_host);
}
BENCHMARK(BM_DlsProtocolAtomic)
    ->Name("BM_DlsProtocol/atomic")
    ->Threads(1)->Threads(4)->Threads(8)->UseRealTime();

void BM_DlsProtocolCombining(benchmark::State& state) {
  protocol_loop(state, g_tree_host);
  if (state.thread_index() == 0) {
    state.counters["combine_rate"] =
        g_tree.cell_stats(g_tree_host.cell()).combine_rate();
  }
}
BENCHMARK(BM_DlsProtocolCombining)
    ->Name("BM_DlsProtocol/combining")
    ->Threads(1)->Threads(4)->Threads(8)->UseRealTime();

void BM_DlsProtocolFlat(benchmark::State& state) {
  protocol_loop(state, g_flat_host);
  if (state.thread_index() == 0) {
    state.counters["combined_fraction"] =
        g_flat.cell_stats(g_flat_host.cell()).combined_fraction();
  }
}
BENCHMARK(BM_DlsProtocolFlat)
    ->Name("BM_DlsProtocol/flat")
    ->Threads(1)->Threads(4)->Threads(8)->UseRealTime();

// --- the §5.6 bound as a combining rate: BM_DlsWave --------------------------
//
// Deterministic waves through the tree's single-caller surface: two puts
// of DISTINCT values into leaf-sharing slots, then two gets. Every put
// fold DECLINES at either budget: core::DlsWordOp's wire form carries one
// store value, and §7 partial combining serves the second put at the root
// — the get fold, which carries no store values, still fits. (The typed
// DlsOp<N> at the full §5.6 budget would fold both waves: 0.5 / 0.) The
// counters are exact protocol constants, not timing artifacts, pinned by
// tests/test_dls.cpp's DlsWord.WaveRatesPinTheWireBudget:
//   full    combine_rate=0.25  declined_fold_rate=0.50
//   narrow  combine_rate=0.25  declined_fold_rate=0.50
void BM_DlsWave(benchmark::State& state, bool narrow) {
  const auto& pc = protocol();
  rt::CombiningBackend backend(4);
  rt::CombiningBackend::Cell cell(backend, dls_pack({0, 0}));
  using Wave = std::decay_t<decltype(cell.combiner)>::WaveOp;
  const auto one_value = pc.put(1).encoded_size_bytes();
  const auto put = [&](Word v) {
    auto op = pc.put(v);
    return narrow ? op.with_size_budget(one_value) : op;
  };
  Word v = 0;
  for (auto _ : state) {
    ++v;
    const std::vector<Wave> puts = {{0, AnyRmw(put(v % 1000 + 1))},
                                    {1, AnyRmw(put(v % 1000 + 501))}};
    benchmark::DoNotOptimize(cell.combiner.run_wave(puts));
    const std::vector<Wave> gets = {{0, AnyRmw(pc.get())},
                                    {1, AnyRmw(pc.get())}};
    benchmark::DoNotOptimize(cell.combiner.run_wave(gets));
  }
  const auto st = cell.combiner.stats();
  state.counters["combine_rate"] = st.combine_rate();
  const auto attempts = st.folds + st.declined_folds;
  state.counters["declined_fold_rate"] =
      attempts > 0 ? static_cast<double>(st.declined_folds) /
                         static_cast<double>(attempts)
                   : 0.0;
  state.SetItemsProcessed(static_cast<std::int64_t>(4 * state.iterations()));
}
BENCHMARK_CAPTURE(BM_DlsWave, full, false)->Name("BM_DlsWave/budget:full");
BENCHMARK_CAPTURE(BM_DlsWave, narrow, true)->Name("BM_DlsWave/budget:narrow");

}  // namespace

int main(int argc, char** argv) {
  report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
