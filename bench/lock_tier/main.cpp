// The lock tier, measured honestly against combining: one hot counter
// driven through six RMW substrates —
//
//   spin      — BasicParkingLock<SpinWait> behind LockBackend: the same
//               3-state mutex as `futex`, busy-waiting. The BASELINE every
//               ratio divides by.
//   ticket    — the FIFO fetch-and-add ticket lock (proportional backoff).
//   mcs       — the MCS queue lock: each waiter spins on its own
//               stack-resident node, O(1) remote references per handoff.
//   clh       — the CLH implicit-queue lock: spin on the predecessor's
//               node, release is one local store.
//   futex     — BasicParkingLock<FutexWait>: the same algorithm as `spin`
//               with contended waiters PARKED in the kernel. The spin/futex
//               pair isolates the parking decision from everything else.
//   combining — the software combining tree (CombiningBackend), the
//               paper's substrate, for scale.
//
// Thread counts sweep threads < cores, = cores, and 4×cores — the
// oversubscribed regime is where parking pays: a spinning waiter burns
// the quantum the lock HOLDER needs to release, while a parked waiter
// hands it over. normalize.py folds the rows into the
// `lock_tier_ops_ratio` series (ops of each impl over ops of `spin`, per
// thread count; > 1.0 beats pure spinning) — read it against host_cpus.
//
// Wait-side telemetry rides along: every thread samples its
// thread_wait_stats() delta across the measured loop and reports
// wait_spins / wait_yields / wait_parks / wait_wakes counters (summed
// over threads), so the futex rows SHOW the spin→park transition that
// explains their throughput.
//
// The binary is this main plus one translation unit per row (spin.cpp …
// combining.cpp) over the shared loop in lock_tier.hpp. GCC budgets
// inlining per unit, so in one unit an edit to any included header moved
// rows whose code did not change; apart, only combining.cpp includes the
// combining tree.
#include <benchmark/benchmark.h>

BENCHMARK_MAIN();
