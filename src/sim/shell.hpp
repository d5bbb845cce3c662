// The machine shell: what every simulated machine shares, written once.
//
// The paper combines wherever requests meet — in §4's Omega switches, in
// §7's bus-machine memory FIFO and at §7's cosmic-cube nodes — and the
// three machines differ only in the network between processors and
// memory. So MachineShell<Net, M> owns the rest:
//
//  * the traffic sources, one proc::Processor per source, the
//    mem::MemoryModule vector and the clock;
//  * one ShardLog per engine shard, merged in shard order at the end of
//    every cycle into completed() and combine_log(), so the transcript is
//    the same at every worker count;
//  * tick/run/run_parallel over the engines (sim/engine.hpp), and the
//    processor and module half of drained();
//  * the checker surface (module_count, module, value_at, poke);
//  * the common stats, computed in one place.
//
// `Net` derives from the shell (CRTP, so the per-packet path stays inline
// and nothing is virtual) and supplies module_of(addr), kSubphases,
// engine_subphase(ph, shard), network_drained() for its own queues, and
// add_stats(Stats&) for its own counters under a `Stats` type derived
// from SimStats.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/rmw.hpp"
#include "core/types.hpp"
#include "mem/module.hpp"
#include "net/packet.hpp"
#include "proc/processor.hpp"
#include "runtime/cacheline.hpp"
#include "sim/engine.hpp"
#include "util/assert.hpp"
#include "util/stats.hpp"

namespace krs::sim {

/// The counters every machine reports.
struct SimStats {
  core::Tick cycles = 0;
  std::uint64_t ops_completed = 0;
  /// Every combine the run logged — in switches, routers and module FIFOs
  /// alike — so it equals combine_log().size().
  std::uint64_t combines = 0;
  util::LogHistogram latency;
  double throughput_ops_per_cycle = 0.0;
};

template <typename Net, core::Rmw M>
class MachineShell {
 public:
  using rmw_type = M;
  using Value = typename M::value_type;
  using Fwd = net::FwdPacket<M>;
  using Rev = net::RevPacket<M>;
  using Sources = std::vector<std::unique_ptr<proc::TrafficSource<M>>>;

  /// Advance one cycle (sequential shard order).
  void tick() { SequentialEngine::step(self()); }

  /// Run until every processor is quiescent and the machine has drained,
  /// or `max_cycles` elapse. Returns true iff fully drained.
  bool run(core::Tick max_cycles) {
    return SequentialEngine::run(self(), max_cycles);
  }

  /// Same semantics — and bit-identical results — on a worker pool.
  /// `workers` is clamped to the shard count; 0/1 falls back to run().
  bool run_parallel(core::Tick max_cycles, unsigned workers) {
    return ParallelEngine(workers).run(self(), max_cycles);
  }

  // --- engine concept (sim/engine.hpp) ------------------------------------

  [[nodiscard]] std::uint32_t engine_shards() const noexcept {
    return static_cast<std::uint32_t>(logs_.size());
  }
  [[nodiscard]] unsigned engine_subphases() const noexcept {
    return Net::kSubphases;
  }

  /// Serial between cycles: merge per-shard logs in shard order (so the
  /// global transcript is independent of the worker count) and advance
  /// the clock.
  void engine_end_cycle() {
    for (auto& log : logs_) {
      combine_log_.insert(combine_log_.end(), log.events.begin(),
                          log.events.end());
      log.events.clear();
      completed_.insert(completed_.end(), log.completed.begin(),
                        log.completed.end());
      log.completed.clear();
    }
    ++now_;
  }

  [[nodiscard]] bool drained() const {
    for (const auto& p : procs_) {
      if (!p.quiescent()) return false;
    }
    for (const auto& m : modules_) {
      if (!m.idle()) return false;
    }
    return self().network_drained();
  }

  [[nodiscard]] core::Tick now() const noexcept { return now_; }

  // --- checker surface (verify/memory_checker.hpp) -------------------------

  [[nodiscard]] const std::vector<proc::CompletedOp<M>>& completed() const {
    return completed_;
  }
  [[nodiscard]] const std::vector<net::CombineEvent>& combine_log() const {
    return combine_log_;
  }
  [[nodiscard]] std::uint32_t module_count() const noexcept {
    return static_cast<std::uint32_t>(modules_.size());
  }
  [[nodiscard]] const mem::MemoryModule<M>& module(std::uint32_t i) const {
    return modules_[i];
  }
  [[nodiscard]] Value value_at(core::Addr addr) const {
    return modules_[self().module_of(addr)].value_at(addr);
  }

  /// Directly set a memory cell, outside the simulated clock: no packets,
  /// no cycles, no transcript entry. Seam for the runtime sim backend
  /// (cell initialization, serialized compare-exchange): the write lands
  /// in the owning module's serial state between services, so it
  /// linearizes before every not-yet-serviced request and after every
  /// serviced one.
  void poke(core::Addr addr, Value v) {
    modules_[self().module_of(addr)].poke(addr, v);
  }

  [[nodiscard]] auto stats() const {
    typename Net::Stats s;
    s.cycles = now_;
    s.ops_completed = completed_.size();
    s.combines = combine_log_.size();
    for (const auto& op : completed_) s.latency.add(op.completed - op.issued);
    s.throughput_ops_per_cycle =
        now_ > 0 ? static_cast<double>(s.ops_completed) /
                       static_cast<double>(now_)
                 : 0.0;
    self().add_stats(s);
    return s;
  }

 protected:
  /// One processor per source, `modules` modules, `shards` engine shards.
  MachineShell(Sources sources, std::uint32_t procs, std::uint32_t modules,
               std::uint32_t shards, const mem::ModuleConfig& mem_cfg,
               Value initial, unsigned window, bool processor_side = false)
      : sources_(std::move(sources)), logs_(shards) {
    KRS_EXPECTS(sources_.size() == procs);
    modules_.reserve(modules);
    for (std::uint32_t m = 0; m < modules; ++m) {
      modules_.emplace_back(mem_cfg, initial);
    }
    procs_.reserve(procs);
    for (std::uint32_t p = 0; p < procs; ++p) {
      procs_.emplace_back(p, window, processor_side, sources_[p].get());
    }
  }

  /// Per-shard transcript segment, merged (and cleared) every cycle by
  /// engine_end_cycle. Padded: adjacent shards append concurrently.
  struct alignas(runtime::kCacheLine) ShardLog {
    std::vector<net::CombineEvent> events;
    std::vector<proc::CompletedOp<M>> completed;
    std::vector<Rev> due_scratch;  ///< reused module tick output buffer
  };

  /// Hand a reply whose path is exhausted to its processor.
  void deliver(std::uint32_t p, Rev&& rev, ShardLog& log) {
    procs_[p].deliver(std::move(rev), now_, &log.completed);
  }

  /// Service module `m` for this cycle and pass each due reply to `emit`.
  template <typename Emit>
  void service(std::uint32_t m, ShardLog& log, Emit&& emit) {
    log.due_scratch.clear();
    modules_[m].tick(now_, log.due_scratch);
    for (auto& rev : log.due_scratch) emit(std::move(rev));
  }

  Sources sources_;
  std::vector<mem::MemoryModule<M>> modules_;
  std::vector<proc::Processor<M>> procs_;
  std::vector<ShardLog> logs_;
  core::Tick now_ = 0;

 private:
  Net& self() { return static_cast<Net&>(*this); }
  const Net& self() const { return static_cast<const Net&>(*this); }

  std::vector<proc::CompletedOp<M>> completed_;
  std::vector<net::CombineEvent> combine_log_;
};

}  // namespace krs::sim
