// §4.2's combining rule, written once for every queue that combines: the
// 2×2 switch's output FIFOs, a hypercube router's link FIFOs, and a memory
// module's input FIFO (§7 carries the rule "unchanged" to direct networks
// and to bus machines).
//
// Combine: a request arriving at a FIFO merges into the YOUNGEST queued
// request for its address; the queued request's mapping becomes
// compose(f, g) and a wait-buffer record (id1, id2, f, path of the
// absorbed request) is saved under the queued request's id. The arrival
// takes no queue slot — that is how combining relieves a hot spot.
// Combining with an older entry could sequence the arrival ahead of an
// intervening request from the same processor to the same location,
// violating M2.3; a unique-path network keeps same-source/same-address
// requests in one FIFO, so "youngest match" preserves their order. If
// the youngest match declines (policy, full wait buffer, or the family
// refuses to compose), the arrival is queued on its own.
//
// Decombine: when the representative's reply ⟨id1, val⟩ returns, every
// record saved under id1 yields ⟨id2, f(val)⟩ along the absorbed
// request's own path, in combine order.
//
// Policy knobs reproduce the design space of §7 ("one can use combining
// logic that detects only part of the combinable pairs"): no combining,
// pairwise (one combine per queued message, as in the NYU VLSI switch) or
// unlimited fan-in; a records cap (a full wait buffer declines); and §5.1's
// order reversal for the load/store/swap family.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "core/combining.hpp"
#include "core/load_store_swap.hpp"
#include "core/rmw.hpp"
#include "core/types.hpp"
#include "net/packet.hpp"
#include "net/wait_table.hpp"

namespace krs::net {

enum class CombinePolicy : std::uint8_t {
  kNone,      ///< never combine (baseline network)
  kPairwise,  ///< a queued message combines at most once per queue owner
  kUnlimited  ///< unbounded fan-in per queued message
};

/// One combine event, reported to the machine-level log so the verifier can
/// expand combined messages into the request sequences they represent.
struct CombineEvent {
  core::ReqId representative;
  core::ReqId absorbed;
  core::Addr addr;
  /// §5.1 reversal: the absorbed request's effect logically PRECEDES the
  /// representative's (the verifier expands it first).
  bool reversed = false;
};

/// What one buffer has done; its owner reports these in its own stats.
struct CombineCounters {
  std::uint64_t combines = 0;
  std::uint64_t reversed = 0;         ///< §5.1 starred-table combines
  std::uint64_t declined_policy = 0;  ///< pairwise: the match had combined
  std::uint64_t declined_full = 0;    ///< the records cap was reached
  std::uint64_t max_records = 0;      ///< most records ever held at once
};

template <core::Rmw M>
class CombineBuffer {
 public:
  static constexpr std::size_t kUnbounded =
      std::numeric_limits<std::size_t>::max();

  /// `capacity` caps the records held at once (a bounded buffer is sized
  /// up front; an unbounded one starts small and grows). `order_reversal`
  /// enables §5.1's reversed combine; only the LssOp family has one.
  explicit CombineBuffer(CombinePolicy policy,
                         std::size_t capacity = kUnbounded,
                         bool order_reversal = false)
      : policy_(policy),
        capacity_(capacity),
        order_reversal_(order_reversal),
        table_(capacity == kUnbounded ? 16 : capacity) {}

  /// Combine `pkt` into the youngest same-address request in `queue` (any
  /// FIFO indexable from the front). On success the queued request carries
  /// the composed mapping, the record is saved with `pkt`'s path plus
  /// `hop` (the port it arrived on; negative for none), the event is
  /// appended to *events (if given), and true is returned: the caller
  /// drops `pkt`. On false nothing changed but the decline counters.
  template <typename Queue>
  bool absorb(Queue& queue, const FwdPacket<M>& pkt, int hop,
              std::vector<CombineEvent>* events) {
    FwdPacket<M>* queued = youngest_match(queue, pkt);
    if (queued == nullptr || !admits(*queued)) return false;
    WaitRecord wr;
    if (const auto forwarded = reversal(*queued, pkt)) {
      // The arriving store (logically) executes first, so the forwarded
      // request degenerates to a store and the absorbed one is answered
      // from the representative's reply.
      wr.rec = core::CombineRecord<M>{queued->req.id, pkt.req.id, M{}};
      wr.reversed = true;
      wr.absorbed_map = pkt.req.f;
      queued->req.f = *forwarded;
      ++counters_.reversed;
    } else {
      auto rec = core::try_combine(queued->req, pkt.req);
      if (!rec) return false;  // family declined (e.g. Möbius overflow)
      wr.rec = *rec;
    }
    wr.path = pkt.path;
    if (hop >= 0) wr.path.push_back(static_cast<std::uint8_t>(hop));
    if (events != nullptr) {
      events->push_back({queued->req.id, pkt.req.id, pkt.req.addr,
                         wr.reversed});
    }
    queued->combined = true;
    table_.append(queued->req.id, std::move(wr));
    counters_.max_records =
        std::max<std::uint64_t>(counters_.max_records, table_.records());
    ++counters_.combines;
    return true;
  }

  /// Decombine the reply `rep` of a representative: call `emit(RevPacket&&)`
  /// once per record saved under its id, in combine order, each carrying
  /// the absorbed request's reply along its own path. A reversed record
  /// answers the absorbed store with the value memory returned and turns
  /// `rep`'s value into what that store wrote, so `rep` must be routed
  /// after this call.
  template <typename Emit>
  void decombine(RevPacket<M>& rep, Emit&& emit) {
    const auto val = rep.reply.value;
    table_.consume(rep.reply.id, [&](WaitRecord& wr) {
      RevPacket<M> second;
      second.reply.id = wr.rec.second;
      second.reply.value = wr.reversed ? val : core::decombine(wr.rec, val);
      second.reply.completed = rep.reply.completed;
      second.path = wr.path;
      second.nack = rep.nack;
      if (wr.reversed) rep.reply.value = wr.absorbed_map.apply(val);
      emit(std::move(second));
    });
  }

  [[nodiscard]] std::size_t records() const noexcept {
    return table_.records();
  }
  [[nodiscard]] bool empty() const noexcept { return table_.empty(); }
  [[nodiscard]] const CombineCounters& counters() const noexcept {
    return counters_;
  }

 private:
  using WaitRecord = typename WaitTable<M>::Record;

  /// The queued request `pkt` may combine into: the youngest memory-side
  /// RMW for its address, or nullptr.
  template <typename Queue>
  auto youngest_match(Queue& queue, const FwdPacket<M>& pkt) const
      -> decltype(&queue[0]) {
    if (policy_ == CombinePolicy::kNone || pkt.kind != TxnKind::kRmw) {
      return nullptr;
    }
    for (std::size_t i = queue.size(); i-- > 0;) {
      auto& queued = queue[i];
      if (queued.kind == TxnKind::kRmw && queued.req.addr == pkt.req.addr) {
        return &queued;
      }
    }
    return nullptr;
  }

  /// The pairwise and records-cap checks; a decline is counted.
  bool admits(const FwdPacket<M>& queued) {
    if (policy_ == CombinePolicy::kPairwise &&
        table_.fan_in(queued.req.id) >= 1) {
      ++counters_.declined_policy;
      return false;
    }
    if (table_.records() >= capacity_) {
      ++counters_.declined_full;
      return false;
    }
    return true;
  }

  /// §5.1: the mapping to forward when `pkt` (a store) combines reversed
  /// into `queued` (a load or swap) — both uncombined originals of
  /// distinct processors ("reversing operations is clearly wrong when
  /// successive requests of the same processor are combined").
  [[nodiscard]] std::optional<M> reversal(
      [[maybe_unused]] const FwdPacket<M>& queued,
      [[maybe_unused]] const FwdPacket<M>& pkt) const {
    if constexpr (std::same_as<M, core::LssOp>) {
      if (!order_reversal_ || queued.combined || pkt.combined ||
          queued.req.id.proc == pkt.req.id.proc) {
        return std::nullopt;
      }
      const auto r = core::compose_reversible(queued.req.f, pkt.req.f);
      if (r.reversed) return r.forwarded;
    }
    return std::nullopt;
  }

  CombinePolicy policy_;
  std::size_t capacity_;
  bool order_reversal_;
  WaitTable<M> table_;
  CombineCounters counters_;
};

}  // namespace krs::net
