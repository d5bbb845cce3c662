// The simulated multiprocessor (§3–§4): n processors, a k-stage Omega
// network of combining 2×2 switches, and n independent memory modules with
// memory-side RMW. Cycle-accurate at packet granularity: one packet per
// link per direction per cycle, one service per module per cycle.
//
// The cycle is organized for the engine layer (sim/engine.hpp) as two
// sub-phases over n/2 column shards (shard i owns the stage-i switches of
// every stage plus processors and modules 2i, 2i+1):
//
//  * CONSUME: every component ingests the single-slot links feeding it —
//    processors take replies and issue, switches take replies then
//    requests (rotating-priority arbitration), modules take one request
//    and tick. Each link has exactly one consumer.
//  * PRODUCE: every component moves at most one packet per output into an
//    empty link — switch queue heads, processor outgoing head, the module
//    reply ring head. Each link has exactly one producer.
//
// Links are written in one sub-phase and read in the other, so shards
// never race and every cycle reads the previous sub-phase's snapshot:
// the parallel engine is bit-identical to the sequential one.
//
// The machine records everything the §4.3 correctness argument needs:
//  * every combine event (representative, absorbed) in chronological order,
//  * each module's serial processing order of (possibly combined) requests,
//  * each completed operation's original mapping and observed reply.
// The verifier (src/verify) expands the combined messages into the request
// sequences they represent (Lemma 4.1) and replays them serially.
// The clock, processors, modules, per-shard logs and checker surface live
// in the shared MachineShell (sim/shell.hpp); this file is the network.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/combining.hpp"
#include "core/rmw.hpp"
#include "core/types.hpp"
#include "mem/module.hpp"
#include "net/omega.hpp"
#include "net/packet.hpp"
#include "net/switch.hpp"
#include "runtime/cacheline.hpp"
#include "sim/shell.hpp"
#include "util/assert.hpp"
#include "util/ring.hpp"

namespace krs::sim {

using core::Addr;
using core::ReqId;
using core::Tick;

template <core::Rmw M>
struct MachineConfig {
  unsigned log2_procs = 3;  ///< n = 2^k processors, modules, and stages k
  net::SwitchConfig switch_cfg{};
  mem::ModuleConfig mem_cfg{};
  typename M::value_type initial_value{};
  unsigned window = 4;             ///< outstanding ops per processor
  bool processor_side_rmw = false; ///< use the §2 baseline implementation
};

struct MachineStats : SimStats {
  std::uint64_t switch_stall_cycles = 0;
  /// Request messages (and their bytes) that actually occupied link/queue
  /// slots, summed over all switches — combining shows up as a reduction
  /// relative to ops × stages.
  std::uint64_t request_messages = 0;
  std::uint64_t request_bytes = 0;

  /// Fold another accumulator into this one. Counters add and the latency
  /// histogram merges bucket-exact, so per-shard (or per-worker) partials
  /// reduce to the same result a single global accumulator would have
  /// seen — no shared counters needed on the hot path. `cycles` takes the
  /// max (partials observe the same clock); throughput is recomputed.
  void merge(const MachineStats& o) {
    cycles = std::max(cycles, o.cycles);
    ops_completed += o.ops_completed;
    combines += o.combines;
    switch_stall_cycles += o.switch_stall_cycles;
    request_messages += o.request_messages;
    request_bytes += o.request_bytes;
    latency.merge(o.latency);
    throughput_ops_per_cycle =
        cycles > 0 ? static_cast<double>(ops_completed) /
                         static_cast<double>(cycles)
                   : 0.0;
  }
};

/// A single-slot inter-component channel: full exactly between the produce
/// sub-phase that wrote it and the consume sub-phase that drains it.
/// Padded so links consumed by different shards never share a line.
template <typename P>
struct alignas(runtime::kCacheLine) CycleLink {
  P pkt{};
  bool full = false;
};

template <core::Rmw M>
class Machine : public MachineShell<Machine<M>, M> {
  using Shell = MachineShell<Machine<M>, M>;
  friend Shell;
  using Shell::modules_, Shell::procs_, Shell::logs_, Shell::now_;

 public:
  using Stats = MachineStats;
  using typename Shell::Fwd;
  using typename Shell::Rev;

  Machine(MachineConfig<M> cfg, typename Shell::Sources sources)
      : Shell(std::move(sources), 1u << cfg.log2_procs, 1u << cfg.log2_procs,
              (1u << cfg.log2_procs) / 2, cfg.mem_cfg, cfg.initial_value,
              cfg.window, cfg.processor_side_rmw),
        cfg_(cfg),
        topo_(cfg.log2_procs) {
    const auto n = topo_.ports();
    stages_.resize(topo_.stages());
    arb_priority_.assign(topo_.stages(),
                         std::vector<unsigned>(topo_.switches_per_stage(), 0));
    for (auto& st : stages_) {
      st.reserve(topo_.switches_per_stage());
      for (std::uint32_t r = 0; r < topo_.switches_per_stage(); ++r) {
        st.emplace_back(cfg_.switch_cfg);
      }
    }
    // Boundary b sits between stage b-1 and stage b (b = 0: processors,
    // b = k: modules); each holds one link per wire per direction.
    fwd_links_.assign(topo_.stages() + 1,
                      std::vector<CycleLink<Fwd>>(n));
    rev_links_.assign(topo_.stages() + 1,
                      std::vector<CycleLink<Rev>>(n));
    mod_out_.resize(n);
  }

  /// Memory module that owns an address (low-order interleaving).
  [[nodiscard]] std::uint32_t module_of(Addr addr) const noexcept {
    return static_cast<std::uint32_t>(addr & (topo_.ports() - 1));
  }

  /// Engine shard i owns switch row i of every stage, processors 2i and
  /// 2i+1, and modules 2i and 2i+1 — all components whose input links it
  /// consumes.
  void engine_subphase(unsigned ph, std::uint32_t shard) {
    if (ph == 0) {
      consume(shard);
    } else {
      produce(shard);
    }
  }

  [[nodiscard]] net::SwitchStats switch_stats(unsigned stage,
                                              std::uint32_t row) const {
    return stages_[stage][row].stats();
  }

 private:
  using typename Shell::ShardLog;
  static constexpr unsigned kSubphases = 2;

  [[nodiscard]] bool network_drained() const {
    for (const auto& st : stages_) {
      for (const auto& sw : st) {
        if (!sw.idle()) return false;
      }
    }
    for (const auto& boundary : fwd_links_) {
      for (const auto& l : boundary) {
        if (l.full) return false;
      }
    }
    for (const auto& boundary : rev_links_) {
      for (const auto& l : boundary) {
        if (l.full) return false;
      }
    }
    for (const auto& q : mod_out_) {
      if (!q.empty()) return false;
    }
    return true;
  }

  /// Switch counters, reduced per column through MachineStats::merge —
  /// the reduction a parallel stats pass would perform.
  void add_stats(MachineStats& s) const {
    for (std::uint32_t col = 0; col < topo_.switches_per_stage(); ++col) {
      MachineStats part;
      part.cycles = now_;
      for (unsigned st = 0; st < topo_.stages(); ++st) {
        const auto& sw = stages_[st][col].stats();
        part.switch_stall_cycles += sw.stalls;
        part.request_messages += sw.requests_forwarded;
        part.request_bytes += sw.request_bytes;
      }
      s.merge(part);
    }
  }

  // --- link indexing -------------------------------------------------------
  // Boundary b, wire w: for b < k, w is the stage-b input wire
  // (row << 1) | in_port of the consuming switch; for b == k, w is the
  // module index. A producer therefore shuffles its output wire for
  // b < k (the perfect-shuffle wiring between stages) and uses it
  // directly into the module boundary.

  [[nodiscard]] std::uint32_t down_wire(unsigned boundary,
                                        std::uint32_t out_wire) const {
    return boundary == topo_.stages() ? out_wire : topo_.shuffle(out_wire);
  }

  // --- consume: ingest input links, shard `col` ----------------------------

  void consume(std::uint32_t col) {
    ShardLog& log = logs_[col];
    const unsigned k = topo_.stages();

    // Processors 2col, 2col+1: take the reply link, then retire retries
    // and issue new work.
    for (unsigned j = 0; j < 2; ++j) {
      const std::uint32_t p = 2 * col + j;
      auto& link = rev_links_[0][topo_.shuffle(p)];
      if (link.full) {
        KRS_ASSERT(link.pkt.path.empty());
        this->deliver(p, std::move(link.pkt), log);
        link.full = false;
      }
      procs_[p].tick(now_);
    }

    // Switches (s, col): replies first (decombine into the reverse
    // queues), then requests under rotating-priority arbitration.
    for (unsigned s = 0; s < k; ++s) {
      auto& sw = stages_[s][col];
      for (unsigned port = 0; port < 2; ++port) {
        const std::uint32_t wire = net::OmegaTopology::output_wire(col, port);
        auto& link = rev_links_[s + 1][down_wire(s + 1, wire)];
        if (link.full) {
          sw.accept_reply(std::move(link.pkt));
          link.full = false;
        }
      }
      // Input-port arbitration must be LOCALLY fair: with fixed priority,
      // a congested output queue that frees one slot per cycle starves
      // port 1 forever; with globally synchronized alternation (now mod 2)
      // the whole machine can parity-lock — every period in the system is
      // even (reply latency, pipeline hops), so under the processor-side
      // lock protocol the owner's write-unlock then never advances (a
      // measured livelock, not a hypothetical). The standard fix:
      // per-switch rotating priority that flips exactly when the favored
      // port wins a transfer.
      unsigned& pref = arb_priority_[s][col];
      const unsigned order[2] = {pref, pref ^ 1u};
      for (unsigned i = 0; i < 2; ++i) {
        const unsigned port = order[i];
        auto& link = fwd_links_[s][net::OmegaTopology::output_wire(col, port)];
        if (!link.full) continue;
        const unsigned out_port =
            topo_.route_bit(module_of(link.pkt.req.addr), s);
        if (sw.offer_request(std::move(link.pkt), port, out_port,
                             &log.events)) {
          link.full = false;
          if (i == 0) pref = order[1];  // favored port won: rotate
        }
      }
    }

    // Modules 2col, 2col+1: pull one request from the boundary link, then
    // service; due replies stage on the module's reply ring.
    for (unsigned j = 0; j < 2; ++j) {
      const std::uint32_t m = 2 * col + j;
      auto& link = fwd_links_[k][m];
      if (link.full && modules_[m].try_accept(link.pkt, &log.events)) {
        link.full = false;
      }
      this->service(m, log,
                    [&](Rev&& rev) { mod_out_[m].push_back(std::move(rev)); });
    }
  }

  // --- produce: fill output links, shard `col` -----------------------------

  void produce(std::uint32_t col) {
    const unsigned k = topo_.stages();

    // Processor outgoing heads → stage-0 request links.
    for (unsigned j = 0; j < 2; ++j) {
      const std::uint32_t p = 2 * col + j;
      auto& link = fwd_links_[0][topo_.shuffle(p)];
      if (!link.full && procs_[p].peek_outgoing() != nullptr) {
        link.pkt = procs_[p].pop_outgoing();
        link.full = true;
      }
    }

    // Switch queue heads: forward toward memory, reverse toward the
    // processors. One packet per link per cycle in each direction.
    for (unsigned s = 0; s < k; ++s) {
      auto& sw = stages_[s][col];
      for (unsigned port = 0; port < 2; ++port) {
        const std::uint32_t wire = net::OmegaTopology::output_wire(col, port);
        auto& flink = fwd_links_[s + 1][down_wire(s + 1, wire)];
        if (!flink.full && sw.peek_output(port) != nullptr) {
          flink.pkt = sw.pop_output(port);
          flink.full = true;
        }
        auto& rlink = rev_links_[s][wire];
        if (!rlink.full && sw.peek_reply(port) != nullptr) {
          rlink.pkt = sw.pop_reply(port);
          rlink.full = true;
        }
      }
    }

    // Module reply ring heads → boundary-k reply links.
    for (unsigned j = 0; j < 2; ++j) {
      const std::uint32_t m = 2 * col + j;
      auto& link = rev_links_[k][m];
      if (!link.full && !mod_out_[m].empty()) {
        link.pkt = std::move(mod_out_[m].front());
        mod_out_[m].pop_front();
        link.full = true;
      }
    }
  }

  MachineConfig<M> cfg_;
  net::OmegaTopology topo_;
  std::vector<std::vector<net::CombiningSwitch<M>>> stages_;
  /// Rotating input-port priority per switch (see consume()).
  std::vector<std::vector<unsigned>> arb_priority_;
  /// Single-slot links at each stage boundary, [k+1][n] per direction.
  std::vector<std::vector<CycleLink<Fwd>>> fwd_links_;
  std::vector<std::vector<CycleLink<Rev>>> rev_links_;
  /// Per-module staged replies awaiting a free boundary link.
  std::vector<util::RingBuffer<Rev>> mod_out_;
};

}  // namespace krs::sim
