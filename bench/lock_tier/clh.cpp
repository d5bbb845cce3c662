// bench_lock_tier row `clh`: the CLH implicit-queue lock.
#include "lock_tier.hpp"
#include "runtime/local_spin_locks.hpp"

using namespace krs::runtime;

namespace {

LockBackend<ClhLock> g_rig;
alignas(krs::bench::kCellAlign) LockBackend<ClhLock>::Cell g_cell(g_rig, 0);

void BM_LockTierClh(benchmark::State& state) {
  krs::bench::lock_tier_loop(state, g_rig, g_cell);
}
BENCHMARK(BM_LockTierClh)
    ->Name("BM_LockTier/clh")
    ->Apply(krs::bench::lock_tier_threads);

}  // namespace
