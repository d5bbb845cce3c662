// krs_sim — command-line driver for the combining-machine simulators.
//
// Run hot-spot experiments on any of the three machines without writing
// C++:
//
//   krs_sim --machine=omega --log2-procs=5 --hot=0.25 --policy=unlimited
//           --ops=256 --family=faa
//   krs_sim --machine=bus --procs=16 --banks=4 --service-interval=4
//           --module-combining=1 --hot=1.0
//   krs_sim --machine=hypercube --dims=4 --hot=0.5 --policy=none
//
// Prints a one-line summary (cycles, throughput, latency, combines) plus
// optional CSV (--csv) for scripting, and always verifies the run with the
// Theorem 4.2 checker (exit code 1 on any correctness failure).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/any_rmw.hpp"
#include "core/fetch_theta.hpp"
#include "core/load_store_swap.hpp"
#include "sim/bus_machine.hpp"
#include "sim/hypercube_machine.hpp"
#include "sim/machine.hpp"
#include "verify/memory_checker.hpp"
#include "workload/workloads.hpp"

using namespace krs;

namespace {

struct Options {
  std::string machine = "omega";  // omega | bus | hypercube
  std::string family = "faa";     // faa | lss
  unsigned log2_procs = 4;        // omega
  std::uint32_t procs = 16;       // bus
  std::uint32_t banks = 4;        // bus
  unsigned dims = 4;              // hypercube
  double hot = 0.0;
  std::uint64_t ops = 256;
  std::uint64_t addr_space = 1 << 16;
  std::string policy = "unlimited";  // none | pairwise | unlimited
  bool module_combining = false;
  bool order_reversal = false;
  core::Tick service_interval = 1;
  core::Tick mem_latency = 2;
  unsigned window = 4;
  std::uint64_t seed = 1;
  core::Tick max_cycles = 100'000'000;
  std::string engine = "seq";  // seq | parallel
  unsigned workers = 0;        // 0 = hardware concurrency
  bool csv = false;
};

void usage() {
  std::puts(
      "krs_sim [options]\n"
      "  --machine=omega|bus|hypercube   (default omega)\n"
      "  --family=faa|lss|mixed                operation mix (default faa)\n"
      "  --log2-procs=K                  omega size (default 4)\n"
      "  --procs=N --banks=B             bus size (defaults 16, 4)\n"
      "  --dims=D                        hypercube dimensions (default 4)\n"
      "  --hot=F                         hot-spot fraction 0..1 (default 0)\n"
      "  --ops=N                         operations per processor (256)\n"
      "  --addr-space=N                  uniform address range (65536)\n"
      "  --policy=none|pairwise|unlimited  switch combining (unlimited)\n"
      "  --module-combining=0|1          §7 FIFO combining at memory (0)\n"
      "  --order-reversal=0|1            §5.1 reversal (lss only) (0)\n"
      "  --service-interval=T            bank busy time (1)\n"
      "  --mem-latency=T                 memory reply latency (2)\n"
      "  --window=W                      outstanding ops per processor (4)\n"
      "  --seed=S                        workload seed (1)\n"
      "  --engine=seq|parallel           simulation engine (seq); parallel\n"
      "                                  is bit-identical to seq\n"
      "  --workers=N                     parallel worker threads (0 = auto)\n"
      "  --csv                           machine-readable output\n");
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--help" || key == "-h") {
      usage();
      std::exit(0);
    } else if (key == "--machine") {
      o.machine = val;
    } else if (key == "--family") {
      o.family = val;
    } else if (key == "--log2-procs") {
      o.log2_procs = std::strtoul(val.c_str(), nullptr, 10);
    } else if (key == "--procs") {
      o.procs = std::strtoul(val.c_str(), nullptr, 10);
    } else if (key == "--banks") {
      o.banks = std::strtoul(val.c_str(), nullptr, 10);
    } else if (key == "--dims") {
      o.dims = std::strtoul(val.c_str(), nullptr, 10);
    } else if (key == "--hot") {
      o.hot = std::strtod(val.c_str(), nullptr);
    } else if (key == "--ops") {
      o.ops = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--addr-space") {
      o.addr_space = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--policy") {
      o.policy = val;
    } else if (key == "--module-combining") {
      o.module_combining = val == "1" || val == "true";
    } else if (key == "--order-reversal") {
      o.order_reversal = val == "1" || val == "true";
    } else if (key == "--service-interval") {
      o.service_interval = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--mem-latency") {
      o.mem_latency = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--window") {
      o.window = std::strtoul(val.c_str(), nullptr, 10);
    } else if (key == "--seed") {
      o.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--engine") {
      o.engine = val;
    } else if (key == "--workers") {
      o.workers = std::strtoul(val.c_str(), nullptr, 10);
    } else if (key == "--csv") {
      o.csv = true;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", key.c_str());
      return false;
    }
  }
  return true;
}

net::CombinePolicy parse_policy(const std::string& s) {
  if (s == "none") return net::CombinePolicy::kNone;
  if (s == "pairwise") return net::CombinePolicy::kPairwise;
  return net::CombinePolicy::kUnlimited;
}

template <core::Rmw M>
std::vector<std::unique_ptr<proc::TrafficSource<M>>> make_sources(
    const Options& o, std::uint32_t n,
    std::function<M(util::Xoshiro256&)> factory) {
  std::vector<std::unique_ptr<proc::TrafficSource<M>>> src;
  for (std::uint32_t p = 0; p < n; ++p) {
    typename workload::HotSpotSource<M>::Params params;
    params.total = o.ops;
    params.hot_fraction = o.hot;
    params.hot_addr = 3;
    params.addr_space = o.addr_space;
    src.push_back(std::make_unique<workload::HotSpotSource<M>>(
        params, factory, o.seed * 7919 + p));
  }
  return src;
}

template <core::Rmw M>
std::function<M(util::Xoshiro256&)> op_factory();

template <>
std::function<core::FetchAdd(util::Xoshiro256&)> op_factory() {
  return [](util::Xoshiro256& r) { return core::FetchAdd(r.below(100)); };
}

template <>
std::function<core::LssOp(util::Xoshiro256&)> op_factory() {
  return [](util::Xoshiro256& r) {
    switch (r.below(3)) {
      case 0:
        return core::LssOp::load();
      case 1:
        return core::LssOp::store(r.below(1000));
      default:
        return core::LssOp::swap(r.below(1000));
    }
  };
}

template <>
std::function<core::AnyRmw(util::Xoshiro256&)> op_factory() {
  // A realistic heterogeneous instruction mix: mostly loads/stores, some
  // fetch-and-adds, occasional Boolean and affine updates. Same-family
  // requests combine; cross-family pairs decline (partial combining, §7).
  return [](util::Xoshiro256& r) -> core::AnyRmw {
    switch (r.below(6)) {
      case 0:
        return core::AnyRmw(core::LssOp::load());
      case 1:
        return core::AnyRmw(core::LssOp::store(r.below(1000)));
      case 2:
      case 3:
        return core::AnyRmw(core::FetchAdd(r.below(100)));
      case 4:
        return core::AnyRmw(core::BoolVec::masked_store(r.next(), 0xFF));
      default:
        return core::AnyRmw(core::Affine(1 + r.below(3), r.below(50)));
    }
  };
}

void report(const Options& o, const sim::SimStats& s, bool drained,
            bool checked) {
  const auto cycles = static_cast<unsigned long long>(s.cycles);
  const auto ops = static_cast<unsigned long long>(s.ops_completed);
  const auto combines = static_cast<unsigned long long>(s.combines);
  const double latency = s.latency.mean();
  if (o.csv) {
    std::printf("machine,family,hot,policy,cycles,ops,throughput,latency,"
                "combines,drained,checked\n");
    std::printf("%s,%s,%.4f,%s,%llu,%llu,%.4f,%.2f,%llu,%d,%d\n",
                o.machine.c_str(), o.family.c_str(), o.hot, o.policy.c_str(),
                cycles, ops, s.throughput_ops_per_cycle, latency, combines,
                drained, checked);
  } else {
    std::printf("%s machine, %s ops, hot=%.1f%%, policy=%s%s\n",
                o.machine.c_str(), o.family.c_str(), o.hot * 100,
                o.policy.c_str(),
                o.module_combining ? " + module FIFO combining" : "");
    std::printf("  cycles      %llu\n", cycles);
    std::printf("  ops         %llu\n", ops);
    std::printf("  throughput  %.3f ops/cycle\n", s.throughput_ops_per_cycle);
    std::printf("  latency     %.1f cycles (mean)\n", latency);
    std::printf("  combines    %llu\n", combines);
    std::printf("  drained     %s\n", drained ? "yes" : "NO");
    std::printf("  theorem 4.2 %s\n", checked ? "PASS" : "FAIL");
  }
}

// Runs one machine on the selected engine, checks it against Theorem 4.2
// and reports. The parallel engine produces a transcript bit-identical to
// the sequential one, so the check and every reported statistic are
// engine-independent; the three machines differ only in their config.
template <typename MachineT, typename Config>
int simulate(const Options& o, const Config& cfg, std::uint32_t procs) {
  using M = typename MachineT::rmw_type;
  MachineT m(cfg, make_sources<M>(o, procs, op_factory<M>()));
  const unsigned workers =
      o.workers != 0 ? o.workers
                     : std::max(1u, std::thread::hardware_concurrency());
  const bool drained = o.engine == "parallel"
                           ? m.run_parallel(o.max_cycles, workers)
                           : m.run(o.max_cycles);
  const auto check = verify::check_machine(m, typename M::value_type{});
  report(o, m.stats(), drained, check.ok);
  if (!check.ok) std::fprintf(stderr, "checker: %s\n", check.error.c_str());
  return drained && check.ok ? 0 : 1;
}

template <core::Rmw M>
int dispatch(const Options& o) {
  mem::ModuleConfig mem_cfg;
  mem_cfg.combine_in_queue = o.module_combining;
  mem_cfg.service_interval = o.service_interval;
  mem_cfg.latency = o.mem_latency;
  if (o.machine == "omega") {
    sim::MachineConfig<M> cfg;
    cfg.log2_procs = o.log2_procs;
    cfg.switch_cfg.policy = parse_policy(o.policy);
    cfg.switch_cfg.allow_order_reversal = o.order_reversal;
    cfg.mem_cfg = mem_cfg;
    cfg.window = o.window;
    return simulate<sim::Machine<M>>(o, cfg, 1u << o.log2_procs);
  }
  if (o.machine == "bus") {
    sim::BusMachineConfig<M> cfg;
    cfg.processors = o.procs;
    cfg.banks = o.banks;
    cfg.bank_cfg = mem_cfg;
    cfg.window = o.window;
    return simulate<sim::BusMachine<M>>(o, cfg, o.procs);
  }
  if (o.machine == "hypercube") {
    sim::HypercubeConfig<M> cfg;
    cfg.dimensions = o.dims;
    cfg.policy = parse_policy(o.policy);
    cfg.mem_cfg = mem_cfg;
    cfg.window = o.window;
    return simulate<sim::HypercubeMachine<M>>(o, cfg, 1u << o.dims);
  }
  std::fprintf(stderr, "unknown machine: %s\n", o.machine.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) {
    usage();
    return 2;
  }
  if (o.engine != "seq" && o.engine != "parallel") {
    std::fprintf(stderr, "unknown engine: %s\n", o.engine.c_str());
    return 2;
  }
  if (o.family == "faa") return dispatch<core::FetchAdd>(o);
  if (o.family == "lss") return dispatch<core::LssOp>(o);
  if (o.family == "mixed") return dispatch<core::AnyRmw>(o);
  std::fprintf(stderr, "unknown family: %s\n", o.family.c_str());
  return 2;
}
