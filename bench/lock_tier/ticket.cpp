// bench_lock_tier row `ticket`: the FIFO fetch-and-add ticket lock
// (proportional backoff).
#include "lock_tier.hpp"
#include "runtime/local_spin_locks.hpp"
#include "runtime/ticket_lock.hpp"

using namespace krs::runtime;

namespace {

LockBackend<TicketLock> g_rig;
alignas(krs::bench::kCellAlign) LockBackend<TicketLock>::Cell g_cell(g_rig, 0);

void BM_LockTierTicket(benchmark::State& state) {
  krs::bench::lock_tier_loop(state, g_rig, g_cell);
}
BENCHMARK(BM_LockTierTicket)
    ->Name("BM_LockTier/ticket")
    ->Apply(krs::bench::lock_tier_threads);

}  // namespace
