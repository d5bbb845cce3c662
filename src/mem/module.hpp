// A memory module (§3): an independent bank that services one request per
// cycle in FIFO order — fulfilling (M2.1)–(M2.3) locally — with a fixed
// access latency before the reply re-enters the network.
//
// Two RMW implementations from §2 are supported:
//
//  * memory-side (kRmw): the module applies the update mapping itself and
//    returns the old value — two network messages per operation, the
//    module busy for one cycle. This is the implementation the paper (and
//    the Ultracomputer/RP3) assume, and the only one that combines.
//
//  * processor-side (kReadLock / kWriteUnlock): the module returns the old
//    value and LOCKS — refusing all other traffic — until the issuing
//    processor writes back the updated value ("the memory itself is locked
//    for the duration of this extended cycle"). A write-unlock bypasses the
//    input queue capacity and head-of-line blocking so the extended cycle
//    can always complete. Requests from other processors wait; the
//    resulting serial bottleneck is measured in bench_rmw_impl.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/rmw.hpp"
#include "core/types.hpp"
#include "net/combine_buffer.hpp"
#include "net/packet.hpp"
#include "util/assert.hpp"
#include "util/ring.hpp"

namespace krs::mem {

using core::Addr;
using core::ReqId;
using core::Tick;

struct ModuleConfig {
  std::size_t queue_capacity = 8;
  Tick latency = 2;  ///< cycles from service to reply emission
  /// Cycles the bank is busy per service (1 = fully pipelined; larger
  /// models a slow interleaved bank, the setting where §7's FIFO combining
  /// pays off).
  Tick service_interval = 1;
  /// §7's closing remark: on bus-based machines with an interleaved,
  /// FIFO-decoupled memory, "combining in this queue will improve the
  /// memory throughput by reducing conflicting accesses to the same memory
  /// bank." When set, an arriving request combines with the youngest
  /// queued request for its address by the switch's rule
  /// (net/combine_buffer.hpp), with unlimited fan-in and no records cap.
  bool combine_in_queue = false;
  /// §5.5's queueing model: "An alternative mechanism is to queue a
  /// request at memory until it is executable. This decreases the network
  /// traffic. However, unless some time-out mechanism is available at the
  /// memory controller, the hardware may deadlock." When set, a
  /// conditional operation whose guard fails (family provides
  /// f.succeeded(cell)) is parked per-location instead of NACKed, and
  /// re-tried after every update to that location. A parked operation that
  /// never wakes keeps the module non-idle — run() then reports the
  /// deadlock the paper warns about. Use with combining disabled (the
  /// general combine tables do not preserve blocking semantics).
  bool queue_failed_conditionals = false;
};

struct ModuleStats {
  std::uint64_t rmw_ops = 0;
  std::uint64_t read_locks = 0;
  std::uint64_t write_unlocks = 0;
  std::uint64_t locked_stall_cycles = 0;
  std::uint64_t lock_refused = 0;
  std::uint64_t idle_cycles = 0;
  std::uint64_t queue_combines = 0;
  std::uint64_t parked_ops = 0;   ///< §5.5 queueing: guard-failed, parked
  std::uint64_t woken_ops = 0;    ///< parked ops that became executable
};

/// One serviced access, in module processing order — the serial order the
/// verifier expands and replays (Theorem 4.2).
struct AccessRecord {
  Addr addr;
  ReqId id;
};

/// Families with guarded (conditional) operations expose whether an
/// operation's guard holds for a given cell state — the hook the §5.5
/// queueing model needs.
template <typename M>
concept HasSuccessPredicate =
    requires(const M& f, const typename M::value_type& v) {
      { f.succeeded(v) } -> std::convertible_to<bool>;
    };

template <core::Rmw M>
class MemoryModule {
 public:
  using Value = typename M::value_type;
  using Fwd = net::FwdPacket<M>;
  using Rev = net::RevPacket<M>;

  MemoryModule(ModuleConfig cfg, Value initial)
      : cfg_(cfg),
        initial_(initial),
        combine_(cfg.combine_in_queue ? net::CombinePolicy::kUnlimited
                                      : net::CombinePolicy::kNone) {
    in_q_.reserve(cfg_.queue_capacity);
    pending_.reserve(cfg_.queue_capacity);
  }

  /// Offer a packet this cycle, in one pass. If queue combining is
  /// enabled and the arrival combines with a queued request, the combine
  /// event is appended to *events (for the Theorem 4.2 expansion) and no
  /// queue slot is used; else the packet takes a queue slot (write-unlocks
  /// always get one). Either way the packet is consumed and true is
  /// returned. A full FIFO refuses: false, and `pkt` is left untouched
  /// for a retry. `hop`, if non-negative, is appended to the path header
  /// of a consumed packet (the port it arrived on).
  bool try_accept(Fwd& pkt, std::vector<net::CombineEvent>* events = nullptr,
                  int hop = -1) {
    if (combine_.absorb(in_q_, pkt, hop, events)) return true;
    if (pkt.kind != net::TxnKind::kWriteUnlock &&
        in_q_.size() >= cfg_.queue_capacity) {
      return false;
    }
    if (hop >= 0) pkt.path.push_back(static_cast<std::uint8_t>(hop));
    in_q_.push_back(std::move(pkt));
    return true;
  }

  /// Service step: process at most one request, then emit replies due this
  /// cycle into `out` (so a latency-0 configuration replies in the same
  /// cycle it services).
  void tick(Tick now, std::vector<Rev>& out) {
    service_one(now);
    while (!pending_.empty() && pending_.front().due <= now) {
      out.push_back(std::move(pending_.front().pkt));
      pending_.pop_front();
    }
  }

 private:
  void service_one(Tick now) {
    if (now < busy_until_) return;  // bank busy
    if (in_q_.empty()) {
      ++stats_.idle_cycles;
      return;
    }
    busy_until_ = now + cfg_.service_interval;
    if (locked_by_.has_value()) {
      // Only the lock owner's write-unlock may proceed; find it anywhere in
      // the queue (bypass). A read-lock at the head is refused with a
      // negative acknowledgment (the §5.5 busy-wait model) so the queue
      // keeps draining — otherwise back-pressure from stalled lock
      // requests could prevent the owner's unlock from ever arriving.
      for (std::size_t i = 0; i < in_q_.size(); ++i) {
        if (in_q_[i].kind == net::TxnKind::kWriteUnlock &&
            in_q_[i].req.id.proc == *locked_by_) {
          Fwd pkt = std::move(in_q_[i]);
          in_q_.erase_at(i);
          service(std::move(pkt), now);
          return;
        }
      }
      if (in_q_.front().kind == net::TxnKind::kReadLock) {
        Fwd pkt = std::move(in_q_.front());
        in_q_.pop_front();
        Rev rev;
        rev.reply.id = pkt.req.id;
        rev.reply.completed = now + cfg_.latency;
        rev.path = std::move(pkt.path);
        rev.nack = true;
        ++stats_.lock_refused;
        pending_.push_back({now + cfg_.latency, std::move(rev)});
        return;
      }
      ++stats_.locked_stall_cycles;
      return;
    }
    Fwd pkt = std::move(in_q_.front());
    in_q_.pop_front();
    service(std::move(pkt), now);
  }

 public:
  [[nodiscard]] Value value_at(Addr addr) const {
    auto it = cells_.find(addr);
    return it == cells_.end() ? initial_ : it->second;
  }

  /// Directly set a cell, outside the simulated clock (no packet, no
  /// cycle, no access-log entry). Seam for the runtime sim backend: cell
  /// initialization and its serialized compare-exchange both act on the
  /// module's serial state between services, so they linearize against
  /// every in-flight packet by construction.
  void poke(Addr addr, Value v) { cell_ref(addr) = v; }

  [[nodiscard]] const std::vector<AccessRecord>& access_log() const noexcept {
    return access_log_;
  }
  [[nodiscard]] ModuleStats stats() const noexcept {
    ModuleStats s = stats_;
    s.queue_combines = combine_.counters().combines;
    return s;
  }

  [[nodiscard]] bool idle() const noexcept {
    return in_q_.empty() && pending_.empty() && !locked_by_.has_value() &&
           combine_.empty() && parked_.empty();
  }

  /// §5.5 queueing: operations currently parked at this module. A machine
  /// that finishes with parked operations has deadlocked in the way the
  /// paper warns about.
  [[nodiscard]] std::size_t parked_count() const noexcept {
    std::size_t n = 0;
    for (const auto& [addr, list] : parked_) n += list.size();
    return n;
  }

 private:
  struct Pending {
    Tick due;
    Rev pkt;
  };

  void service(Fwd&& pkt, Tick now) {
    Value& cell = cell_ref(pkt.req.addr);
    // §5.5 queueing: park a guard-failed conditional until the location
    // changes, instead of answering with a NACK the issuer must retry.
    if constexpr (HasSuccessPredicate<M>) {
      if (cfg_.queue_failed_conditionals && pkt.kind == net::TxnKind::kRmw &&
          !pkt.req.f.succeeded(cell)) {
        parked_[pkt.req.addr].push_back(std::move(pkt));
        ++stats_.parked_ops;
        return;
      }
    }
    Rev rev;
    rev.reply.id = pkt.req.id;
    rev.reply.completed = now + cfg_.latency;
    rev.path = std::move(pkt.path);
    switch (pkt.kind) {
      case net::TxnKind::kRmw:
        rev.reply.value = cell;
        cell = pkt.req.f.apply(cell);
        access_log_.push_back({pkt.req.addr, pkt.req.id});
        ++stats_.rmw_ops;
        break;
      case net::TxnKind::kReadLock:
        rev.reply.value = cell;
        locked_by_ = pkt.req.id.proc;
        ++stats_.read_locks;
        break;
      case net::TxnKind::kWriteUnlock:
        KRS_ASSERT(locked_by_ == pkt.req.id.proc);
        rev.reply.value = cell;  // ack; old value unused
        cell = pkt.store_value;
        locked_by_.reset();
        ++stats_.write_unlocks;
        break;
    }
    // The representative's reply leaves first, then one reply per request
    // combined into it here, in combine order. The module never reverses,
    // so decombination leaves `rev` unchanged.
    const Tick due = now + cfg_.latency;
    pending_.push_back({due, rev});
    combine_.decombine(rev, [&](Rev&& second) {
      pending_.push_back({due, std::move(second)});
    });
    wake_parked(pkt.req.addr);
  }

  /// After an update, the first parked operation whose guard now holds is
  /// moved to the head of the service queue. One wake per update keeps the
  /// bank's service rate honest and yields the alternating load/store
  /// schedule of §5.5; when the woken op executes, its own update wakes
  /// the next one. (If its guard fails again by then, it simply re-parks.)
  void wake_parked(Addr addr) {
    if constexpr (HasSuccessPredicate<M>) {
      if (!cfg_.queue_failed_conditionals) return;
      const auto it = parked_.find(addr);
      if (it == parked_.end()) return;
      auto& list = it->second;
      const Value& cell = cell_ref(addr);
      for (auto lit = list.begin(); lit != list.end(); ++lit) {
        if (lit->req.f.succeeded(cell)) {
          in_q_.push_front(std::move(*lit));
          list.erase(lit);
          ++stats_.woken_ops;
          break;
        }
      }
      if (list.empty()) parked_.erase(it);
    }
  }

  Value& cell_ref(Addr addr) {
    auto [it, inserted] = cells_.try_emplace(addr, initial_);
    return it->second;
  }

  ModuleConfig cfg_;
  Value initial_;
  util::RingBuffer<Fwd> in_q_;
  util::RingBuffer<Pending> pending_;
  net::CombineBuffer<M> combine_;
  std::unordered_map<Addr, std::deque<Fwd>> parked_;
  std::unordered_map<Addr, Value> cells_;
  std::optional<std::uint32_t> locked_by_;
  Tick busy_until_ = 0;
  std::vector<AccessRecord> access_log_;
  ModuleStats stats_;
};

}  // namespace krs::mem
