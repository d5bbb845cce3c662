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
// The clock, processors, banks (memory modules), transcript and checker
// surface come from MachineShell (sim/shell.hpp); the Theorem 4.2 checker
// works unchanged (combine events come from the module FIFO). This file
// is the bus: its two arbiters and the banks' reply staging.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/rmw.hpp"
#include "core/types.hpp"
#include "mem/module.hpp"
#include "sim/shell.hpp"
#include "util/assert.hpp"
#include "util/ring.hpp"

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

struct BusMachineStats : SimStats {
  std::uint64_t queue_combines = 0;
  std::uint64_t bus_busy_cycles = 0;
};

template <core::Rmw M>
class BusMachine : public MachineShell<BusMachine<M>, M> {
  using Shell = MachineShell<BusMachine<M>, M>;
  friend Shell;
  using Shell::modules_, Shell::procs_, Shell::logs_, Shell::now_;

 public:
  using Stats = BusMachineStats;
  using typename Shell::Fwd;
  using typename Shell::Rev;

  /// One engine shard per bank or processor, whichever is more: the bus
  /// phases are inherently serial (one arbiter) and run on shard 0 alone;
  /// bank service and processor issue are per-shard parallel.
  BusMachine(BusMachineConfig<M> cfg, typename Shell::Sources sources)
      : Shell(std::move(sources), cfg.processors, cfg.banks,
              std::max(cfg.banks, cfg.processors), cfg.bank_cfg,
              cfg.initial_value, cfg.window),
        cfg_(cfg),
        bank_out_(cfg.banks) {
    KRS_EXPECTS(cfg_.processors >= 1 && cfg_.banks >= 1);
  }

  [[nodiscard]] std::uint32_t module_of(core::Addr addr) const noexcept {
    return static_cast<std::uint32_t>(addr % cfg_.banks);
  }

  void engine_subphase(unsigned ph, std::uint32_t shard) {
    switch (ph) {
      case 0:  // reply bus: one arbiter, serial on shard 0
        if (shard == 0) step_reply_bus();
        break;
      case 1:  // bank service: independent per bank
        if (shard < cfg_.banks) {
          this->service(shard, logs_[shard], [&](Rev&& rev) {
            bank_out_[shard].push_back(std::move(rev));
          });
        }
        break;
      case 2:  // request bus: one arbiter, serial on shard 0
        if (shard == 0) step_request_bus();
        break;
      default:  // processor issue: independent per processor
        if (shard < cfg_.processors) procs_[shard].tick(now_);
        break;
    }
  }

 private:
  static constexpr unsigned kSubphases = 4;

  [[nodiscard]] bool network_drained() const {
    for (const auto& q : bank_out_) {
      if (!q.empty()) return false;
    }
    return true;
  }

  void add_stats(BusMachineStats& s) const {
    for (const auto& b : modules_) s.queue_combines += b.stats().queue_combines;
    s.bus_busy_cycles = bus_busy_;
  }

  void step_reply_bus() {
    unsigned transferred = 0;
    for (std::uint32_t i = 0; i < cfg_.banks && transferred < cfg_.bus_width;
         ++i) {
      const std::uint32_t b =
          (static_cast<std::uint32_t>(now_) + i) % cfg_.banks;
      if (bank_out_[b].empty()) continue;
      Rev rev = std::move(bank_out_[b].front());
      bank_out_[b].pop_front();
      this->deliver(rev.reply.id.proc, std::move(rev), logs_[0]);
      ++transferred;
    }
  }

  void step_request_bus() {
    unsigned transferred = 0;
    for (std::uint32_t i = 0;
         i < cfg_.processors && transferred < cfg_.bus_width; ++i) {
      const std::uint32_t p =
          (static_cast<std::uint32_t>(now_) + i) % cfg_.processors;
      Fwd* head = procs_[p].peek_outgoing();
      if (head == nullptr) continue;
      auto& bank = modules_[module_of(head->req.addr)];
      // Bank FIFO full: the head stays put and retries later.
      if (!bank.try_accept(*head, &logs_[0].events)) continue;
      procs_[p].pop_outgoing();
      ++transferred;
      ++bus_busy_;
    }
  }

  BusMachineConfig<M> cfg_;
  /// Per-bank replies awaiting the reply bus.
  std::vector<util::RingBuffer<Rev>> bank_out_;
  std::uint64_t bus_busy_ = 0;
};

}  // namespace krs::sim
