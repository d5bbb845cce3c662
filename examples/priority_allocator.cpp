// §5.2: "Fetch-and-min is useful for allocation with priorities."
//
// A pool of workers races to claim a shared resource for the most urgent
// request: each posts its deadline with fetch-and-min to a shared cell and
// reads back the previous minimum — whoever actually LOWERED the minimum
// (reply > own deadline) is the new best candidate. Combining networks
// merge the concurrent fetch-and-mins into one (the combined operand is the
// min of the operands), so the allocation round costs O(log P) memory
// operations instead of P.
//
// The demo runs the protocol twice: on the simulated combining machine
// (with the Theorem 4.2 checker) and on real threads through AtomicBackend,
// whose fetch_rmw is a hardware compare-exchange loop.
//
// Build & run:   ./examples/priority_allocator
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "core/any_rmw.hpp"
#include "core/fetch_theta.hpp"
#include "runtime/rmw_backend.hpp"
#include "sim/machine.hpp"
#include "verify/memory_checker.hpp"
#include "workload/workloads.hpp"

using namespace krs;
using core::FetchMin;
using core::Word;

int main() {
  std::printf("== simulated combining machine ==\n");
  sim::MachineConfig<FetchMin> cfg;
  cfg.log2_procs = 4;
  cfg.initial_value = core::MinOp::identity_element;  // "no deadline yet"
  const std::uint32_t n = 1u << cfg.log2_procs;

  // Every processor posts one deadline to the arbitration cell (addr 2).
  std::vector<Word> deadline(n);
  std::vector<std::unique_ptr<proc::TrafficSource<FetchMin>>> src;
  util::Xoshiro256 rng(7);
  for (std::uint32_t p = 0; p < n; ++p) {
    deadline[p] = 100 + rng.below(900);
    std::deque<workload::ScriptedSource<FetchMin>::Item> items;
    items.push_back({0, 2, FetchMin(deadline[p])});
    src.push_back(
        std::make_unique<workload::ScriptedSource<FetchMin>>(std::move(items)));
  }
  sim::Machine<FetchMin> m(cfg, std::move(src));
  m.run(100000);

  Word best = core::MinOp::identity_element;
  for (std::uint32_t p = 0; p < n; ++p) best = std::min(best, deadline[p]);
  std::printf("16 deadlines posted concurrently; combines in network: %llu\n",
              static_cast<unsigned long long>(m.stats().combines));
  std::printf("arbitration cell ends at %llu (true minimum %llu)\n",
              static_cast<unsigned long long>(m.value_at(2)),
              static_cast<unsigned long long>(best));
  std::uint64_t improvers = 0;
  for (const auto& op : m.completed()) {
    // A processor improved the minimum iff the old value it saw was larger
    // than its own deadline.
    if (op.reply > deadline[op.id.proc]) ++improvers;
  }
  std::printf("%llu processors observed themselves lowering the minimum\n",
              static_cast<unsigned long long>(improvers));
  const auto check = verify::check_machine(m, cfg.initial_value);
  std::printf("Theorem 4.2 checker: %s\n\n",
              check.ok ? "PASS" : check.error.c_str());

  std::printf("== real threads (AtomicBackend CAS-loop fetch-and-min) ==\n");
  const runtime::AtomicBackend backend;
  runtime::AtomicBackend::Cell cell(backend, core::MinOp::identity_element);
  const unsigned nt =
      std::max(2u, std::min(8u, std::thread::hardware_concurrency()));
  std::vector<Word> tdl(nt);
  std::atomic<unsigned> winners{0};
  util::Xoshiro256 rng2(8);
  for (auto& d : tdl) d = 100 + rng2.below(900);
  {
    std::vector<std::jthread> ts;
    for (unsigned t = 0; t < nt; ++t) {
      ts.emplace_back([&, t] {
        const Word old =
            backend.fetch_rmw(cell, core::AnyRmw(FetchMin(tdl[t])));
        if (old > tdl[t]) winners.fetch_add(1);
      });
    }
  }
  Word best2 = core::MinOp::identity_element;
  for (auto d : tdl) best2 = std::min(best2, d);
  const Word final_min = backend.load(cell);
  std::printf("%u threads; cell = %llu (true minimum %llu); %u lowered it\n",
              nt, static_cast<unsigned long long>(final_min),
              static_cast<unsigned long long>(best2), winners.load());
  return (m.value_at(2) == best && final_min == best2 && check.ok) ? 0 : 1;
}
