// bench_lock_tier row `futex`: BasicParkingLock<FutexWait>, the
// `spin` algorithm with contended waiters parked in the kernel.
#include "lock_tier.hpp"
#include "runtime/local_spin_locks.hpp"

using namespace krs::runtime;

namespace {

LockBackend<ParkingLock> g_rig;
alignas(krs::bench::kCellAlign) LockBackend<ParkingLock>::Cell g_cell(g_rig, 0);

void BM_LockTierFutex(benchmark::State& state) {
  krs::bench::lock_tier_loop(state, g_rig, g_cell);
}
BENCHMARK(BM_LockTierFutex)
    ->Name("BM_LockTier/futex")
    ->Apply(krs::bench::lock_tier_threads);

}  // namespace
