// The flat-vs-tree crossover: the same counter hotspot through
// FlatCombiningBackend (publication list + single combiner) and
// CombiningBackend (the §4.2 software combining tree), per width
// w ∈ {4, 8, 16} and thread count ∈ {1, 2, 4, 8}.
//
// The normalized output pairs BM_FlatVsTree/flat/w:W against
// BM_FlatVsTree/tree/w:W per thread count into the
// `flat_vs_tree_ops_ratio` series (> 1.0: the flat combiner wins). The
// paper's tree buys O(lg n) asymptotics at the price of lg n CAS-mediated
// handshakes per op; the flat combiner pays ~1 publication transfer plus
// a share of one combiner's scan. The series pins where the constant
// factors cross on this host — read it against `host_cpus` in the JSON
// config: on a single-core runner both substrates mostly measure their
// constant factor, so the ratio is the protocol-overhead quotient, not a
// scaling curve.
//
// Counters: the flat rigs report combined_fraction (share of ops a PEER
// combiner absorbed — the flat-combining win) and direct_rate (share
// applied by the direct CAS, never publishing), the tree rigs
// combine_rate (share folded below the root, §4.2) — cumulative over the
// run, reported once per family.
#include <benchmark/benchmark.h>

#include "core/any_rmw.hpp"
#include "runtime/combining_backend.hpp"
#include "runtime/flat_combining.hpp"
#include "runtime/rmw_backend.hpp"

using namespace krs::runtime;

namespace {

template <typename B>
void counter_loop(benchmark::State& state, B& backend,
                  typename B::Cell& cell) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(backend.fetch_add(cell, 1));
  }
  state.SetItemsProcessed(state.iterations());
}

template <typename B>
void report_flat(benchmark::State& state, const B& backend,
                 const typename B::Cell& cell) {
  if (state.thread_index() == 0) {
    const FlatCombinerStats st = backend.cell_stats(cell);
    state.counters["combined_fraction"] = st.combined_fraction();
    state.counters["direct_rate"] = st.direct_rate();
  }
}

template <typename B>
void report_tree(benchmark::State& state, const B& backend,
                 const typename B::Cell& cell) {
  if (state.thread_index() == 0) {
    state.counters["combine_rate"] = backend.cell_stats(cell).combine_rate();
  }
}

FlatCombiningBackend g_flat4(4);
FlatCombiningBackend g_flat8(8);
FlatCombiningBackend g_flat16(16);
CombiningBackend g_tree4(4);
CombiningBackend g_tree8(8);
CombiningBackend g_tree16(16);

FlatCombiningBackend::Cell g_flat4_cell(g_flat4, 0);
FlatCombiningBackend::Cell g_flat8_cell(g_flat8, 0);
FlatCombiningBackend::Cell g_flat16_cell(g_flat16, 0);
CombiningBackend::Cell g_tree4_cell(g_tree4, 0);
CombiningBackend::Cell g_tree8_cell(g_tree8, 0);
CombiningBackend::Cell g_tree16_cell(g_tree16, 0);

void BM_Flat_W4(benchmark::State& state) {
  counter_loop(state, g_flat4, g_flat4_cell);
  report_flat(state, g_flat4, g_flat4_cell);
}
BENCHMARK(BM_Flat_W4)
    ->Name("BM_FlatVsTree/flat/w:4")
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)->UseRealTime();

void BM_Tree_W4(benchmark::State& state) {
  counter_loop(state, g_tree4, g_tree4_cell);
  report_tree(state, g_tree4, g_tree4_cell);
}
BENCHMARK(BM_Tree_W4)
    ->Name("BM_FlatVsTree/tree/w:4")
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)->UseRealTime();

void BM_Flat_W8(benchmark::State& state) {
  counter_loop(state, g_flat8, g_flat8_cell);
  report_flat(state, g_flat8, g_flat8_cell);
}
BENCHMARK(BM_Flat_W8)
    ->Name("BM_FlatVsTree/flat/w:8")
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)->UseRealTime();

void BM_Tree_W8(benchmark::State& state) {
  counter_loop(state, g_tree8, g_tree8_cell);
  report_tree(state, g_tree8, g_tree8_cell);
}
BENCHMARK(BM_Tree_W8)
    ->Name("BM_FlatVsTree/tree/w:8")
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)->UseRealTime();

void BM_Flat_W16(benchmark::State& state) {
  counter_loop(state, g_flat16, g_flat16_cell);
  report_flat(state, g_flat16, g_flat16_cell);
}
BENCHMARK(BM_Flat_W16)
    ->Name("BM_FlatVsTree/flat/w:16")
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)->UseRealTime();

void BM_Tree_W16(benchmark::State& state) {
  counter_loop(state, g_tree16, g_tree16_cell);
  report_tree(state, g_tree16, g_tree16_cell);
}
BENCHMARK(BM_Tree_W16)
    ->Name("BM_FlatVsTree/tree/w:16")
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
