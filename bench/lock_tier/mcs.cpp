// bench_lock_tier row `mcs`: the MCS queue lock.
#include "lock_tier.hpp"
#include "runtime/local_spin_locks.hpp"

using namespace krs::runtime;

namespace {

LockBackend<McsLock> g_rig;
LockBackend<McsLock>::Cell g_cell(g_rig, 0);

void BM_LockTierMcs(benchmark::State& state) {
  krs::bench::lock_tier_loop(state, g_rig, g_cell);
}
BENCHMARK(BM_LockTierMcs)
    ->Name("BM_LockTier/mcs")
    ->Apply(krs::bench::lock_tier_threads);

}  // namespace
