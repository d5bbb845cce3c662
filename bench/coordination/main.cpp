// E14 — the fetch-and-add coordination repertoire ([10]) on real threads:
// barrier, readers-writers, counting semaphore, and the parallel FIFO
// queue, each against a mutex/condition-variable baseline. The paper's
// point: these algorithms have no serial critical section, so they scale
// with the memory system rather than with lock hand-offs.
//
// E17 — the same repertoire's hot-path RMW patterns on the simulated
// Omega machine (BM_SimCoordination/*): costs in NETWORK CYCLES PER
// OPERATION rather than host wall-clock. One benchmark iteration = one
// round of the primitive's §6 traffic pattern injected as simultaneous
// waves via SimBackend::run_wave, so the reported cycles_per_op is a pure
// function of the pattern — bit-identical on every host, comparable
// against the paper's analytic O(lg n) formulas.
//
// One translation unit per substrate (coordination_loops.hpp says why):
//   atomic.cpp     — the backend rows on AtomicBackend;
//   combining.cpp  — the same rows on CombiningBackend (the tree);
//   sim.cpp        — BM_SimCoordination/* on the simulated Omega machine;
//   baselines.cpp  — the fetch-and-add primitives against std::barrier,
//                    std::shared_mutex, std::mutex and a mutex/condvar
//                    queue.
#include <benchmark/benchmark.h>

BENCHMARK_MAIN();
