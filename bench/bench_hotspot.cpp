// E11 — the hot-spot experiment (Pfister & Norton [20], Lee–Kruskal–Kuck
// [16]) that motivates combining (§1): sweep the fraction h of references
// aimed at one shared cell, for combining and non-combining networks, at
// several machine sizes; report mean latency, p99-ish latency bound,
// throughput, and combining counts. Every run is verified serializable.
//
// The paper's qualitative claims to look for in the output:
//  * without combining, even a few percent of hot references degrades the
//    WHOLE machine (uniform traffic suffers too — tree saturation);
//  * with combining, latency stays near the uniform baseline all the way
//    to a 100% hot spot;
//  * the gap widens with machine size.
#include <cstdio>
#include <memory>
#include <vector>

#include "core/fetch_theta.hpp"
#include "sim/machine.hpp"
#include "verify/memory_checker.hpp"
#include "workload/workloads.hpp"

using namespace krs;
using core::FetchAdd;

namespace {

struct Row {
  double mean_latency;
  std::uint64_t p99;
  double throughput;
  std::uint64_t combines;
  std::uint64_t cycles;
  std::uint64_t messages;
  std::uint64_t bytes;
};

Row run(unsigned log2_procs, double hot, net::CombinePolicy policy,
        std::uint64_t per_proc, bool module_combining = false) {
  sim::MachineConfig<FetchAdd> cfg;
  cfg.log2_procs = log2_procs;
  cfg.switch_cfg.policy = policy;
  cfg.mem_cfg.combine_in_queue = module_combining;
  cfg.window = 4;
  const std::uint32_t n = 1u << log2_procs;
  std::vector<std::unique_ptr<proc::TrafficSource<FetchAdd>>> src;
  for (std::uint32_t p = 0; p < n; ++p) {
    workload::HotSpotSource<FetchAdd>::Params params;
    params.total = per_proc;
    params.hot_fraction = hot;
    params.hot_addr = 3;
    params.addr_space = 1u << 16;
    src.push_back(std::make_unique<workload::HotSpotSource<FetchAdd>>(
        params, [](util::Xoshiro256& r) { return FetchAdd(r.below(100)); },
        0xBEEF + p));
  }
  sim::Machine<FetchAdd> m(cfg, std::move(src));
  if (!m.run(50'000'000)) {
    std::fprintf(stderr, "machine did not drain\n");
    std::exit(1);
  }
  const auto check = verify::check_machine(m, 0);
  if (!check.ok) {
    std::fprintf(stderr, "CHECKER FAILED: %s\n", check.error.c_str());
    std::exit(1);
  }
  const auto s = m.stats();
  return {s.latency.mean(),
          s.latency.quantile_bound(0.99),
          s.throughput_ops_per_cycle,
          s.combines,
          s.cycles,
          s.request_messages,
          s.request_bytes};
}

void sweep(unsigned log2_procs, std::uint64_t per_proc) {
  const std::uint32_t n = 1u << log2_procs;
  std::printf("---- %u processors, %u modules, %u stages, %llu refs/proc "
              "----\n",
              n, n, log2_procs, static_cast<unsigned long long>(per_proc));
  std::printf("%7s | %30s | %30s\n", "", "no combining", "combining");
  std::printf("%7s | %9s %8s %10s | %9s %8s %10s %9s\n", "hot %", "lat",
              "p99<=", "ops/cyc", "lat", "p99<=", "ops/cyc", "combines");
  for (const double hot : {0.0, 0.01, 0.02, 0.04, 0.08, 0.16, 0.32, 0.64,
                           1.0}) {
    const Row a = run(log2_procs, hot, net::CombinePolicy::kNone, per_proc);
    const Row b =
        run(log2_procs, hot, net::CombinePolicy::kUnlimited, per_proc);
    std::printf("%6.1f%% | %9.1f %8llu %10.3f | %9.1f %8llu %10.3f %9llu\n",
                hot * 100, a.mean_latency,
                static_cast<unsigned long long>(a.p99), a.throughput,
                b.mean_latency, static_cast<unsigned long long>(b.p99),
                b.throughput, static_cast<unsigned long long>(b.combines));
  }
  std::printf("\n");
}

void pairwise_ablation(unsigned log2_procs) {
  std::printf("---- ablation: combining degree (pure hot spot, %u procs) "
              "----\n",
              1u << log2_procs);
  std::printf("%-22s %9s %10s %10s %12s %12s\n", "policy", "lat", "ops/cyc",
              "combines", "link msgs", "link bytes");
  const struct {
    const char* name;
    net::CombinePolicy policy;
  } policies[] = {
      {"none", net::CombinePolicy::kNone},
      {"pairwise (NYU switch)", net::CombinePolicy::kPairwise},
      {"unlimited fan-in", net::CombinePolicy::kUnlimited},
  };
  for (const auto& p : policies) {
    const Row r = run(log2_procs, 1.0, p.policy, 128);
    std::printf("%-22s %9.1f %10.3f %10llu %12llu %12llu\n", p.name,
                r.mean_latency, r.throughput,
                static_cast<unsigned long long>(r.combines),
                static_cast<unsigned long long>(r.messages),
                static_cast<unsigned long long>(r.bytes));
  }
  // §7's bus variant: no combining in the network, only in the module's
  // input FIFO — cheaper hardware, intermediate benefit.
  const Row mq = run(log2_procs, 1.0, net::CombinePolicy::kNone, 128, true);
  std::printf("%-22s %9.1f %10.3f %10llu %12llu %12llu\n",
              "module FIFO only (§7)", mq.mean_latency, mq.throughput,
              static_cast<unsigned long long>(mq.combines),
              static_cast<unsigned long long>(mq.messages),
              static_cast<unsigned long long>(mq.bytes));
  std::printf("(combining also REDUCES total network traffic: merged "
              "requests traverse the remaining stages once)\n\n");
}

}  // namespace

// Tree-saturation profile (Pfister–Norton's mechanism made visible): the
// per-stage stall counts under a pure hot spot, with and without combining.
void saturation_profile(unsigned log2_procs) {
  std::printf("---- tree saturation profile (pure hot spot, %u procs) "
              "----\n",
              1u << log2_procs);
  for (const auto policy :
       {net::CombinePolicy::kNone, net::CombinePolicy::kUnlimited}) {
    sim::MachineConfig<FetchAdd> cfg;
    cfg.log2_procs = log2_procs;
    cfg.switch_cfg.policy = policy;
    cfg.window = 4;
    const std::uint32_t n = 1u << log2_procs;
    std::vector<std::unique_ptr<proc::TrafficSource<FetchAdd>>> src;
    for (std::uint32_t p = 0; p < n; ++p) {
      src.push_back(std::make_unique<workload::SingleAddressSource<FetchAdd>>(
          3, 128, [](util::Xoshiro256&) { return FetchAdd(1); }, p));
    }
    sim::Machine<FetchAdd> m(cfg, std::move(src));
    m.run(50'000'000);
    std::printf("%-12s stalls/stage:",
                policy == net::CombinePolicy::kNone ? "none" : "combining");
    for (unsigned s = 0; s < log2_procs; ++s) {
      std::uint64_t stalls = 0;
      for (std::uint32_t row = 0; row < n / 2; ++row) {
        stalls += m.switch_stats(s, row).stalls;
      }
      std::printf(" %8llu", static_cast<unsigned long long>(stalls));
    }
    std::printf("\n");
  }
  std::printf("(without combining, back-pressure from the hot module fills "
              "queues all the way back to stage 0 — the whole machine "
              "suffers; with combining the tree never saturates)\n\n");
}

int main() {
  std::printf("== E11: hot-spot contention and combining ==\n\n");
  sweep(3, 256);
  sweep(4, 256);
  sweep(5, 192);
  sweep(6, 128);
  pairwise_ablation(5);
  saturation_profile(5);
  return 0;
}
