// bench_lock_tier row `spin`: BasicParkingLock<SpinWait> behind
// LockBackend, the baseline every lock_tier_ops_ratio divides by.
#include "lock_tier.hpp"
#include "runtime/local_spin_locks.hpp"

using namespace krs::runtime;

namespace {

LockBackend<BasicParkingLock<SpinWait>> g_rig;
alignas(krs::bench::kCellAlign)
    LockBackend<BasicParkingLock<SpinWait>>::Cell g_cell(g_rig, 0);

void BM_LockTierSpin(benchmark::State& state) {
  krs::bench::lock_tier_loop(state, g_rig, g_cell);
}
BENCHMARK(BM_LockTierSpin)
    ->Name("BM_LockTier/spin")
    ->Apply(krs::bench::lock_tier_threads);

}  // namespace
