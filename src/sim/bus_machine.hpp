// §7's second deployment of combining: "machines where multiple processors
// are connected to a shared memory by a bus. The shared memory is often
// heavily interleaved ... A FIFO buffer is often used to decouple memory
// from the shared bus. Combining in this queue will improve the memory
// throughput by reducing conflicting accesses to the same memory bank."
//
// This machine has no multistage network: one request crosses the bus per
// cycle (round-robin arbitration among processors), lands in its bank's
// FIFO (where it may combine), and one reply crosses back per cycle. Banks
// are slow relative to the bus (ModuleConfig::service_interval), which is
// exactly when the FIFO fills and queue combining pays.
//
// Reuses the memory module and processor models; the Theorem 4.2 checker
// works unchanged (combine events come from the module FIFO).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/rmw.hpp"
#include "core/types.hpp"
#include "mem/module.hpp"
#include "net/combine_buffer.hpp"
#include "net/packet.hpp"
#include "proc/processor.hpp"
#include "sim/engine.hpp"
#include "util/assert.hpp"
#include "util/stats.hpp"

namespace krs::sim {

template <core::Rmw M>
struct BusMachineConfig {
  std::uint32_t processors = 8;
  std::uint32_t banks = 4;
  mem::ModuleConfig bank_cfg{};
  typename M::value_type initial_value{};
  unsigned window = 4;
  /// Requests (and replies) crossing the bus per cycle.
  unsigned bus_width = 1;
};

struct BusMachineStats {
  core::Tick cycles = 0;
  std::uint64_t ops_completed = 0;
  std::uint64_t queue_combines = 0;
  std::uint64_t bus_busy_cycles = 0;
  util::LogHistogram latency;
  double throughput_ops_per_cycle = 0.0;
};

template <core::Rmw M>
class BusMachine {
 public:
  using rmw_type = M;
  using Value = typename M::value_type;
  using Fwd = net::FwdPacket<M>;
  using Rev = net::RevPacket<M>;

  BusMachine(BusMachineConfig<M> cfg,
             std::vector<std::unique_ptr<proc::TrafficSource<M>>> sources)
      : cfg_(cfg), sources_(std::move(sources)) {
    KRS_EXPECTS(cfg_.processors >= 1 && cfg_.banks >= 1);
    KRS_EXPECTS(sources_.size() == cfg_.processors);
    banks_.reserve(cfg_.banks);
    for (std::uint32_t b = 0; b < cfg_.banks; ++b) {
      banks_.emplace_back(cfg_.bank_cfg, cfg_.initial_value);
    }
    bank_out_.resize(cfg_.banks);
    bank_due_.resize(cfg_.banks);
    procs_.reserve(cfg_.processors);
    for (std::uint32_t p = 0; p < cfg_.processors; ++p) {
      procs_.emplace_back(p, cfg_.window, /*processor_side=*/false,
                          sources_[p].get());
    }
  }

  [[nodiscard]] std::uint32_t bank_of(core::Addr addr) const noexcept {
    return static_cast<std::uint32_t>(addr % cfg_.banks);
  }

  void tick() { SequentialEngine::step(*this); }

  bool run(core::Tick max_cycles) {
    return SequentialEngine::run(*this, max_cycles);
  }

  /// Bit-identical to run() at every worker count: the bus phases are
  /// inherently serial (one arbiter) and run on shard 0 alone; bank
  /// service and processor issue are per-shard parallel.
  bool run_parallel(core::Tick max_cycles, unsigned workers) {
    return ParallelEngine(workers).run(*this, max_cycles);
  }

  // --- engine concept (sim/engine.hpp) ------------------------------------

  [[nodiscard]] std::uint32_t engine_shards() const noexcept {
    return std::max(cfg_.banks, cfg_.processors);
  }
  [[nodiscard]] unsigned engine_subphases() const noexcept {
    return kSubphases;
  }

  void engine_subphase(unsigned ph, std::uint32_t shard) {
    switch (ph) {
      case 0:  // reply bus: one arbiter, serial on shard 0
        if (shard == 0) step_reply_bus();
        break;
      case 1:  // bank service: independent per bank
        if (shard < cfg_.banks) step_bank(shard);
        break;
      case 2:  // request bus: one arbiter, serial on shard 0
        if (shard == 0) step_request_bus();
        break;
      default:  // processor issue: independent per processor
        if (shard < cfg_.processors) procs_[shard].tick(now_);
        break;
    }
  }

  void engine_end_cycle() { ++now_; }

  [[nodiscard]] bool drained() const {
    for (const auto& p : procs_) {
      if (!p.quiescent()) return false;
    }
    for (const auto& b : banks_) {
      if (!b.idle()) return false;
    }
    for (const auto& q : bank_out_) {
      if (!q.empty()) return false;
    }
    return true;
  }

  // --- checker interface (same shape as sim::Machine) ----------------------
  [[nodiscard]] std::uint32_t processors() const noexcept {
    return cfg_.banks;  // the checker iterates module(0..processors())
  }
  [[nodiscard]] const mem::MemoryModule<M>& module(std::uint32_t b) const {
    return banks_[b];
  }
  [[nodiscard]] const std::vector<proc::CompletedOp<M>>& completed() const {
    return completed_;
  }
  [[nodiscard]] const std::vector<net::CombineEvent>& combine_log() const {
    return combine_log_;
  }
  [[nodiscard]] Value value_at(core::Addr addr) const {
    return banks_[bank_of(addr)].value_at(addr);
  }

  [[nodiscard]] core::Tick now() const noexcept { return now_; }

  [[nodiscard]] BusMachineStats stats() const {
    BusMachineStats s;
    s.cycles = now_;
    s.ops_completed = completed_.size();
    for (const auto& op : completed_) s.latency.add(op.completed - op.issued);
    for (const auto& b : banks_) s.queue_combines += b.stats().queue_combines;
    s.bus_busy_cycles = bus_busy_;
    s.throughput_ops_per_cycle =
        now_ > 0
            ? static_cast<double>(completed_.size()) / static_cast<double>(now_)
            : 0.0;
    return s;
  }

 private:
  static constexpr unsigned kSubphases = 4;

  void step_reply_bus() {
    unsigned transferred = 0;
    for (std::uint32_t i = 0; i < cfg_.banks && transferred < cfg_.bus_width;
         ++i) {
      const std::uint32_t b =
          (static_cast<std::uint32_t>(now_) + i) % cfg_.banks;
      if (bank_out_[b].empty()) continue;
      Rev rev = std::move(bank_out_[b].front());
      bank_out_[b].erase(bank_out_[b].begin());
      procs_[rev.reply.id.proc].deliver(std::move(rev), now_, &completed_);
      ++transferred;
    }
  }

  void step_bank(std::uint32_t b) {
    auto& due = bank_due_[b];  // shard-local scratch, reused each cycle
    due.clear();
    banks_[b].tick(now_, due);
    for (auto& rev : due) bank_out_[b].push_back(std::move(rev));
  }

  void step_request_bus() {
    unsigned transferred = 0;
    for (std::uint32_t i = 0;
         i < cfg_.processors && transferred < cfg_.bus_width; ++i) {
      const std::uint32_t p =
          (static_cast<std::uint32_t>(now_) + i) % cfg_.processors;
      Fwd* head = procs_[p].peek_outgoing();
      if (head == nullptr) continue;
      auto& bank = banks_[bank_of(head->req.addr)];
      // Bank FIFO full: the head stays put and retries later.
      if (!bank.try_accept(*head, &combine_log_)) continue;
      procs_[p].pop_outgoing();
      ++transferred;
      ++bus_busy_;
    }
  }

  BusMachineConfig<M> cfg_;
  std::vector<std::unique_ptr<proc::TrafficSource<M>>> sources_;
  std::vector<mem::MemoryModule<M>> banks_;
  std::vector<std::vector<Rev>> bank_out_;
  std::vector<std::vector<Rev>> bank_due_;
  std::vector<proc::Processor<M>> procs_;
  std::vector<proc::CompletedOp<M>> completed_;
  std::vector<net::CombineEvent> combine_log_;
  std::uint64_t bus_busy_ = 0;
  core::Tick now_ = 0;
};

}  // namespace krs::sim
