// §7: "the mechanisms described in this paper can be easily adopted for
// use by direct connection machines, such as the cosmic cube, where the
// processors themselves act like network switches and the local memories
// at each node are all viewed as part of a distributed, shared memory."
//
// A 2^d-node hypercube: every node hosts a processor, a memory module
// owning the addresses that hash to it, and a router. Requests travel by
// e-cube (dimension-order) routing — a unique, deterministic path, so the
// §4.1 assumptions (non-overtaking, reply retraces the path) hold exactly
// as in the indirect network. Each router output link carries a combining
// FIFO, and one net::CombineBuffer per node applies §4.2's youngest-match
// rule and wait-buffer decombination over all d of them, exactly as the
// 2×2 switch does over its two; the Theorem 4.2 checker applies unchanged.
// Node u's processor and memory module are the MachineShell's (sim/shell.hpp)
// processor u and module u; this file is the routers.
//
// Engine layout (sim/engine.hpp): one shard per node. CONSUME ingests the
// node's staging slots (replies, then local memory, then requests, then
// the processor's injection) and routes into node-local queues; PRODUCE
// moves at most one packet per link per direction into the neighbor's
// empty staging slot. Each staging slot has exactly one producer (the
// neighbor across that dimension) and one consumer (the node itself), so
// shard order is immaterial and parallel runs are bit-identical to
// sequential ones.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "core/rmw.hpp"
#include "core/types.hpp"
#include "mem/module.hpp"
#include "net/combine_buffer.hpp"
#include "runtime/cacheline.hpp"
#include "sim/shell.hpp"
#include "util/assert.hpp"
#include "util/bits.hpp"

namespace krs::sim {

template <core::Rmw M>
struct HypercubeConfig {
  unsigned dimensions = 3;  ///< 2^d nodes
  mem::ModuleConfig mem_cfg{};
  typename M::value_type initial_value{};
  unsigned window = 4;
  std::size_t link_queue_capacity = 4;
  net::CombinePolicy policy = net::CombinePolicy::kUnlimited;
  std::size_t wait_buffer_capacity = 64;
};

struct HypercubeStats : SimStats {
  std::uint64_t hops = 0;  ///< request link traversals
  std::uint64_t max_wait_buffer = 0;  ///< most records one node ever held
};

template <core::Rmw M>
class HypercubeMachine : public MachineShell<HypercubeMachine<M>, M> {
  using Shell = MachineShell<HypercubeMachine<M>, M>;
  friend Shell;
  using Shell::modules_, Shell::procs_, Shell::logs_, Shell::now_;

 public:
  using Stats = HypercubeStats;
  using typename Shell::Fwd;
  using typename Shell::Rev;

  HypercubeMachine(HypercubeConfig<M> cfg, typename Shell::Sources sources)
      : Shell(std::move(sources), node_count(cfg), node_count(cfg),
              node_count(cfg), cfg.mem_cfg, cfg.initial_value, cfg.window),
        cfg_(cfg) {
    node_.reserve(nodes());
    for (std::uint32_t u = 0; u < nodes(); ++u) {
      node_.emplace_back(cfg_);
    }
  }

  [[nodiscard]] std::uint32_t nodes() const noexcept {
    return 1u << cfg_.dimensions;
  }

  /// The node (and so the module) that owns an address.
  [[nodiscard]] std::uint32_t module_of(core::Addr addr) const noexcept {
    return static_cast<std::uint32_t>(addr & (nodes() - 1));
  }

  /// One engine shard per node.
  void engine_subphase(unsigned ph, std::uint32_t shard) {
    if (ph == 0) {
      consume(shard);
    } else {
      produce(shard);
    }
  }

 private:
  using typename Shell::ShardLog;
  static constexpr unsigned kSubphases = 2;

  static std::uint32_t node_count(const HypercubeConfig<M>& cfg) {
    KRS_EXPECTS(cfg.dimensions >= 1 && cfg.dimensions <= 10);
    return 1u << cfg.dimensions;
  }

  /// A node's router: its processor and module are the shell's, index u.
  struct alignas(runtime::kCacheLine) Node {
    explicit Node(const HypercubeConfig<M>& cfg)
        : out_req(cfg.dimensions),
          out_rep(cfg.dimensions),
          in_req(cfg.dimensions),
          in_rep(cfg.dimensions),
          wait_buffer(cfg.policy, cfg.wait_buffer_capacity) {}

    /// Per-dimension outgoing FIFOs (request combining happens in
    /// out_req) and single-slot incoming staging, filled by the neighbor
    /// across that dimension during PRODUCE, drained here during CONSUME.
    std::vector<std::deque<Fwd>> out_req;
    std::vector<std::deque<Rev>> out_rep;
    std::vector<std::deque<Fwd>> in_req;
    std::vector<std::deque<Rev>> in_rep;
    /// Replies destined for the local processor, delivered next cycle.
    std::deque<Rev> local_rep;
    /// Combining over all out_req FIFOs, and its decombination records.
    net::CombineBuffer<M> wait_buffer;
    /// Shard-local counter, summed by stats() — no shared cells.
    std::uint64_t hops = 0;
  };

  [[nodiscard]] bool network_drained() const {
    for (const auto& nd : node_) {
      if (!nd.wait_buffer.empty() || !nd.local_rep.empty()) return false;
      for (const auto& q : nd.out_req) {
        if (!q.empty()) return false;
      }
      for (const auto& q : nd.out_rep) {
        if (!q.empty()) return false;
      }
      for (const auto& q : nd.in_req) {
        if (!q.empty()) return false;
      }
      for (const auto& q : nd.in_rep) {
        if (!q.empty()) return false;
      }
    }
    return true;
  }

  void add_stats(HypercubeStats& s) const {
    for (const auto& nd : node_) {
      s.max_wait_buffer =
          std::max(s.max_wait_buffer, nd.wait_buffer.counters().max_records);
      s.hops += nd.hops;
    }
  }

  /// e-cube: the dimension of the lowest differing bit (deterministic,
  /// unique path — the §4.1 assumptions hold).
  [[nodiscard]] static unsigned route_dim(std::uint32_t u, std::uint32_t v) {
    KRS_EXPECTS(u != v);
    const std::uint32_t diff = u ^ v;
    return util::log2_floor(diff & (~diff + 1u));
  }

  // Path header encoding: each hop stores the dimension it arrived on.
  // The reply leaves node u back along the last recorded dimension.

  // --- consume: ingest staging slots, shard `u` ----------------------------

  void consume(std::uint32_t u) {
    Node& nd = node_[u];
    ShardLog& log = logs_[u];
    // Replies that became local last cycle reach the processor.
    while (!nd.local_rep.empty()) {
      Rev rev = std::move(nd.local_rep.front());
      nd.local_rep.pop_front();
      KRS_ASSERT(rev.path.empty());
      this->deliver(u, std::move(rev), log);
    }
    // One reply per incoming link: decombine and route onward.
    for (unsigned dim = 0; dim < cfg_.dimensions; ++dim) {
      if (nd.in_rep[dim].empty()) continue;
      Rev rev = std::move(nd.in_rep[dim].front());
      nd.in_rep[dim].pop_front();
      handle_reply(u, std::move(rev));
    }
    // Local memory services and emits due replies.
    this->service(u, log, [&](Rev&& rev) { handle_reply(u, std::move(rev)); });
    // One request per incoming link; a refused head stays staged (the
    // neighbor's PRODUCE sees the slot busy — back-pressure).
    for (unsigned dim = 0; dim < cfg_.dimensions; ++dim) {
      if (nd.in_req[dim].empty()) continue;
      if (try_route(u, nd.in_req[dim].front(), static_cast<int>(dim), &log)) {
        nd.in_req[dim].pop_front();
      }
    }
    // Local injection.
    if (Fwd* head = procs_[u].peek_outgoing();
        head != nullptr && try_route(u, *head, /*arrival_dim=*/-1, &log)) {
      procs_[u].pop_outgoing();
    }
    procs_[u].tick(now_);
  }

  /// A reply present AT node u (after crossing a link or leaving memory):
  /// decombine against u's wait buffer, then route onward.
  void handle_reply(std::uint32_t u, Rev&& rev) {
    node_[u].wait_buffer.decombine(
        rev, [&](Rev&& second) { route_reply(u, std::move(second)); });
    route_reply(u, std::move(rev));
  }

  void route_reply(std::uint32_t u, Rev&& rev) {
    Node& nd = node_[u];
    if (rev.path.empty()) {
      nd.local_rep.push_back(std::move(rev));
      return;
    }
    const unsigned dim = rev.path.back();
    rev.path.pop_back();
    KRS_ASSERT(dim < cfg_.dimensions);
    // Staged here; PRODUCE moves it across the link (one hop per cycle).
    nd.out_rep[dim].push_back(std::move(rev));
  }

  /// Route a request at node u into the local memory or the proper output
  /// FIFO, where it may combine. `head` is only consumed on success
  /// (return true); on refusal it is left untouched for retry next cycle.
  /// `arrival_dim` is recorded in the path header (−1: local injection).
  bool try_route(std::uint32_t u, Fwd& head, int arrival_dim, ShardLog* log) {
    Node& nd = node_[u];
    const std::uint32_t dest = module_of(head.req.addr);
    if (dest == u) {
      return modules_[u].try_accept(head, &log->events, arrival_dim);
    }
    const unsigned dim = route_dim(u, dest);
    auto& q = nd.out_req[dim];
    if (nd.wait_buffer.absorb(q, head, arrival_dim, &log->events)) return true;
    if (q.size() >= cfg_.link_queue_capacity) return false;
    Fwd pkt = std::move(head);
    if (arrival_dim >= 0) {
      pkt.path.push_back(static_cast<std::uint8_t>(arrival_dim));
    }
    q.push_back(std::move(pkt));
    return true;
  }

  // --- produce: cross the links, shard `u` ---------------------------------

  void produce(std::uint32_t u) {
    Node& nd = node_[u];
    for (unsigned dim = 0; dim < cfg_.dimensions; ++dim) {
      Node& peer = node_[u ^ (1u << dim)];
      // This node is the UNIQUE producer of peer.in_req[dim] and
      // peer.in_rep[dim] (the link across `dim` has two fixed endpoints),
      // so concurrent produce shards never write the same slot.
      if (!nd.out_req[dim].empty() && peer.in_req[dim].empty()) {
        peer.in_req[dim].push_back(std::move(nd.out_req[dim].front()));
        nd.out_req[dim].pop_front();
        ++nd.hops;
      }
      if (!nd.out_rep[dim].empty() && peer.in_rep[dim].empty()) {
        peer.in_rep[dim].push_back(std::move(nd.out_rep[dim].front()));
        nd.out_rep[dim].pop_front();
      }
    }
  }

  HypercubeConfig<M> cfg_;
  std::vector<Node> node_;
};

}  // namespace krs::sim
