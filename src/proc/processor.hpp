// Processor model (§3): issues a serial stream of RMW requests to shared
// memory, pipelining up to `window` outstanding accesses (the intra-
// processor overlap the paper argues large machines need), and consuming
// replies.
//
// Two RMW implementations (§2):
//  * memory-side: one combinable request per operation;
//  * processor-side: a read-lock, a local computation of f(v), and a
//    write-unlock; a refused lock (nack) is retried after a backoff.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/rmw.hpp"
#include "core/types.hpp"
#include "net/packet.hpp"
#include "util/assert.hpp"
#include "util/ring.hpp"

namespace krs::proc {

using core::Addr;
using core::ReqId;
using core::Tick;

/// Where a processor's memory operations come from. Implementations are the
/// workload generators in src/workload.
template <core::Rmw M>
class TrafficSource {
 public:
  virtual ~TrafficSource() = default;

  /// The next operation to issue, or nullopt if none is ready this cycle.
  /// `outstanding` is the number of this processor's in-flight accesses:
  /// a source modelling an RP3 fence (§3.2) withholds the post-fence
  /// operation until it drops to zero.
  virtual std::optional<std::pair<Addr, M>> next(Tick now,
                                                 unsigned outstanding) = 0;

  /// All operations this source will ever produce have been produced.
  [[nodiscard]] virtual bool finished() const = 0;

  /// Observation hook: the operation with this id completed, returning the
  /// old cell value (closed-loop workloads may use it).
  virtual void on_complete(ReqId /*id*/,
                           const typename M::value_type& /*old_value*/,
                           Tick /*now*/) {}
};

/// A completed logical RMW operation, as observed by its issuing processor;
/// the machine collects these for statistics and verification.
template <core::Rmw M>
struct CompletedOp {
  ReqId id;
  Addr addr = 0;
  M f{};
  typename M::value_type reply{};
  Tick issued = 0;
  Tick completed = 0;
};

template <core::Rmw M>
class Processor {
 public:
  using Fwd = net::FwdPacket<M>;
  using Rev = net::RevPacket<M>;
  using Value = typename M::value_type;

  Processor(std::uint32_t index, unsigned window, bool processor_side,
            TrafficSource<M>* source)
      : index_(index),
        window_(window),
        processor_side_(processor_side),
        source_(source) {
    KRS_EXPECTS(window_ >= 1);
    KRS_EXPECTS(source_ != nullptr);
    // All per-processor state is bounded by the issue window; sizing it
    // here keeps the issue/deliver path allocation-free.
    outgoing_.reserve(window_ + 1);
    retries_.reserve(window_ + 1);
    issued_meta_.reserve(window_ + 1);
    ps_ops_.reserve(window_ + 1);
  }

  [[nodiscard]] std::uint32_t index() const noexcept { return index_; }

  /// Issue phase: pull at most one new operation from the source when the
  /// window allows, and requeue due lock retries.
  void tick(Tick now) {
    while (!retries_.empty() && retries_.front().first <= now) {
      outgoing_.push_back(std::move(retries_.front().second));
      retries_.pop_front();
    }
    if (outstanding_ >= window_) return;
    if (auto op = source_->next(now, outstanding_)) {
      const ReqId id{index_, seq_++};
      Fwd pkt;
      pkt.req = core::Request<M>{id, op->first, op->second, now};
      pkt.kind =
          processor_side_ ? net::TxnKind::kReadLock : net::TxnKind::kRmw;
      if (processor_side_) ps_ops_.emplace_back(id, PsOp{op->second, now});
      issued_meta_.emplace_back(id, Meta{op->first, op->second, now});
      outgoing_.push_back(std::move(pkt));
      ++outstanding_;
    }
  }

  [[nodiscard]] const Fwd* peek_outgoing() const {
    return outgoing_.empty() ? nullptr : &outgoing_.front();
  }
  /// The head a consumer may move from in place; pop it once consumed.
  [[nodiscard]] Fwd* peek_outgoing() {
    return outgoing_.empty() ? nullptr : &outgoing_.front();
  }

  Fwd pop_outgoing() {
    KRS_EXPECTS(!outgoing_.empty());
    Fwd p = std::move(outgoing_.front());
    outgoing_.pop_front();
    return p;
  }

  /// Reply delivery. Completed logical operations are appended to *done.
  void deliver(Rev&& rev, Tick now, std::vector<CompletedOp<M>>* done) {
    KRS_ASSERT(rev.reply.id.proc == index_);
    if (!processor_side_) {
      complete(rev.reply.id, rev.reply.value, now, done);
      return;
    }
    PsOp* op = flat_find(ps_ops_, rev.reply.id);
    KRS_ASSERT(op != nullptr);
    const Meta* meta = flat_find(issued_meta_, rev.reply.id);
    KRS_ASSERT(meta != nullptr);
    if (!op->write_issued) {
      if (rev.nack) {
        // Lock refused: retry the read-lock after a short backoff.
        Fwd pkt;
        pkt.req = core::Request<M>{rev.reply.id, meta->addr, op->f, now};
        pkt.kind = net::TxnKind::kReadLock;
        retries_.emplace_back(now + kRetryBackoff, std::move(pkt));
        return;
      }
      // Got the old value; compute locally and write back.
      op->old_value = rev.reply.value;
      op->write_issued = true;
      Fwd pkt;
      pkt.req = core::Request<M>{rev.reply.id, meta->addr, op->f, now};
      pkt.kind = net::TxnKind::kWriteUnlock;
      pkt.store_value = op->f.apply(rev.reply.value);
      outgoing_.push_back(std::move(pkt));
      return;
    }
    // Write-unlock acknowledged: the logical RMW is complete.
    const Value old = op->old_value;
    flat_erase(ps_ops_, rev.reply.id);
    complete(rev.reply.id, old, now, done);
  }

  /// No outstanding operations, nothing staged, source exhausted.
  [[nodiscard]] bool quiescent() const {
    return outstanding_ == 0 && outgoing_.empty() && retries_.empty() &&
           source_->finished();
  }

  [[nodiscard]] unsigned outstanding() const noexcept { return outstanding_; }

 private:
  struct Meta {
    Addr addr;
    M f;
    Tick issued;
  };
  struct PsOp {
    M f{};
    Tick issued = 0;
    Value old_value{};
    bool write_issued = false;
  };

  // Odd on purpose: every other period in the machine (memory latency,
  // pipeline hops) tends to be even, and an even backoff can phase-lock
  // retry storms with the arbitration pattern.
  static constexpr Tick kRetryBackoff = 7;

  void complete(ReqId id, const Value& old_value, Tick now,
                std::vector<CompletedOp<M>>* done) {
    const Meta* meta = flat_find(issued_meta_, id);
    KRS_ASSERT(meta != nullptr);
    if (done != nullptr) {
      done->push_back(
          {id, meta->addr, meta->f, old_value, meta->issued, now});
    }
    source_->on_complete(id, old_value, now);
    flat_erase(issued_meta_, id);
    KRS_ASSERT(outstanding_ > 0);
    --outstanding_;
  }

  // In-flight state is bounded by the window (a handful of entries), so a
  // linear scan over a flat vector beats a node-based hash map and stays
  // allocation-free after the constructor's reserve.
  template <typename V>
  static V* flat_find(std::vector<std::pair<ReqId, V>>& v, ReqId id) {
    for (auto& [k, val] : v) {
      if (k == id) return &val;
    }
    return nullptr;
  }
  template <typename V>
  static void flat_erase(std::vector<std::pair<ReqId, V>>& v, ReqId id) {
    for (auto& e : v) {
      if (e.first == id) {
        if (&e != &v.back()) e = std::move(v.back());
        v.pop_back();
        return;
      }
    }
    KRS_ASSERT(!"flat_erase: unknown id");
  }

  std::uint32_t index_;
  unsigned window_;
  bool processor_side_;
  TrafficSource<M>* source_;
  std::uint32_t seq_ = 0;
  unsigned outstanding_ = 0;
  util::RingBuffer<Fwd> outgoing_;
  util::RingBuffer<std::pair<Tick, Fwd>> retries_;
  std::vector<std::pair<ReqId, Meta>> issued_meta_;
  std::vector<std::pair<ReqId, PsOp>> ps_ops_;
};

}  // namespace krs::proc
