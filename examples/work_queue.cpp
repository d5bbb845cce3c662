// A decentralized work queue on real threads — the paper's §1 claim made
// concrete: "When processed in an efficient manner, [simultaneous requests
// to one cell] can form the basis for a completely parallel, decentralized
// operating system."
//
// Worker threads pull task indices from a fetch-and-add ticket counter (a
// CombiningBackend cell, served by the software combining tree), process
// them, and push results through the GLR-style parallel FIFO queue; an
// aggregator reduces the results. A fetch-and-add barrier separates
// rounds. There is no lock and no serial critical section anywhere.
//
// Build & run:   ./examples/work_queue [threads] [tasks]
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "runtime/combining_backend.hpp"
#include "runtime/coordination.hpp"
#include "runtime/parallel_queue.hpp"

using namespace krs::runtime;

namespace {

// A deliberately lumpy "task": collatz trajectory length.
unsigned task_cost(std::uint64_t n) {
  unsigned steps = 0;
  n = n * 2654435761u % 9999991u + 1;
  while (n != 1 && steps < 10000) {
    n = (n % 2 == 0) ? n / 2 : 3 * n + 1;
    ++steps;
  }
  return steps;
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned threads =
      argc > 1 ? std::atoi(argv[1])
               : std::max(2u, std::min(8u, std::thread::hardware_concurrency()));
  const std::uint64_t tasks = argc > 2 ? std::atoll(argv[2]) : 20000;

  const CombiningBackend backend(threads);
  CombiningBackend::Cell tickets(backend, 0);  // shared task counter
  ParallelQueue<std::uint64_t> results(1024);  // results pipeline
  FaaBarrier barrier(threads + 1);             // workers + aggregator
  std::atomic<std::uint64_t> done{0};

  std::printf("%u workers, %llu tasks, combining-tree tickets + parallel "
              "FIFO queue, zero locks\n",
              threads, static_cast<unsigned long long>(tasks));

  std::vector<std::jthread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      std::uint64_t processed = 0;
      for (;;) {
        const Word ticket = backend.fetch_add(tickets, 1);
        if (ticket >= tasks) break;
        results.enqueue(task_cost(ticket));
        ++processed;
      }
      done.fetch_add(processed);
      barrier.arrive_and_wait();
      std::printf("  worker %u processed %llu tasks\n", t,
                  static_cast<unsigned long long>(processed));
    });
  }

  // Aggregator drains results concurrently.
  std::uint64_t total_cost = 0, drained = 0;
  while (drained < tasks) {
    if (auto v = results.try_dequeue()) {
      total_cost += *v;
      ++drained;
    } else {
      std::this_thread::yield();
    }
  }
  barrier.arrive_and_wait();

  std::printf("aggregate: %llu tasks, total cost %llu, tickets issued %llu\n",
              static_cast<unsigned long long>(drained),
              static_cast<unsigned long long>(total_cost),
              static_cast<unsigned long long>(backend.load(tickets)));
  if (done.load() != tasks || drained != tasks) {
    std::fprintf(stderr, "LOST WORK: done=%llu drained=%llu\n",
                 static_cast<unsigned long long>(done.load()),
                 static_cast<unsigned long long>(drained));
    return 1;
  }
  std::printf("every task processed exactly once.\n");
  return 0;
}
