// bench_lock_tier row `combining`: the software combining tree, sized
// to the largest thread count in the sweep.
#include "lock_tier.hpp"
#include "runtime/combining_backend.hpp"

using namespace krs::runtime;

namespace {

CombiningBackend g_rig{16};
alignas(krs::bench::kCellAlign) CombiningBackend::Cell g_cell(g_rig, 0);

void BM_LockTierCombining(benchmark::State& state) {
  krs::bench::lock_tier_loop(state, g_rig, g_cell);
}
BENCHMARK(BM_LockTierCombining)
    ->Name("BM_LockTier/combining")
    ->Apply(krs::bench::lock_tier_threads);

}  // namespace
