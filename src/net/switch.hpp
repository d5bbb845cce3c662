// A 2×2 packet-switched combining switch (§4.2), the building block of the
// Ultracomputer-style network.
//
// The switch owns two output FIFOs toward memory and two reply FIFOs
// toward the processors. Combining and decombination follow §4.2's one
// rule (net/combine_buffer.hpp): an arrival combines with the youngest
// same-address request in its output FIFO, and a returning reply
// decombines into one reply per wait-buffer record before it continues
// along its popped path. The switch adds port routing and the stall rule:
// an arrival that neither combines nor finds a free slot waits.
#pragma once

#include <cstdint>
#include <vector>

#include "core/rmw.hpp"
#include "net/combine_buffer.hpp"
#include "net/packet.hpp"
#include "util/assert.hpp"
#include "util/ring.hpp"

namespace krs::net {

struct SwitchConfig {
  CombinePolicy policy = CombinePolicy::kUnlimited;
  std::size_t queue_capacity = 4;        ///< per output-port request queue
  std::size_t wait_buffer_capacity = 64; ///< combine records per switch
  /// §5.1's order-reversal optimization (second table): when a store
  /// arrives behind a queued load/swap, execute the store (logically)
  /// first so the forwarded request degenerates to a store and no data
  /// word need return from memory. Only applies to the load/store/swap
  /// family, only between uncombined requests of DIFFERENT processors
  /// ("reversing operations is clearly wrong when successive requests of
  /// the same processor are combined").
  bool allow_order_reversal = false;
};

struct SwitchStats {
  std::uint64_t requests_forwarded = 0;
  std::uint64_t request_bytes = 0;  ///< header + mapping encoding, enqueued
  std::uint64_t combines = 0;
  std::uint64_t reversed_combines = 0;  ///< §5.1 starred-table combines
  std::uint64_t combine_declined_policy = 0;
  std::uint64_t combine_declined_waitbuf = 0;
  std::uint64_t stalls = 0;  ///< cycles an arrival could not move (queue full)
  std::uint64_t replies_forwarded = 0;
  std::uint64_t max_wait_buffer = 0;
  std::uint64_t max_queue_depth = 0;  ///< deepest request FIFO ever seen
};

template <core::Rmw M>
class CombiningSwitch {
 public:
  explicit CombiningSwitch(const SwitchConfig& cfg = {})
      : cfg_(cfg),
        wait_buffer_(cfg.policy, cfg.wait_buffer_capacity,
                     cfg.allow_order_reversal) {
    // Size the forward FIFOs to their capacity bound up front. The reverse
    // FIFOs can burst past it (decombination fan-out) — they grow on first
    // use and, like all ring buffers here, never shrink, so the steady
    // state performs no allocation at all.
    for (auto& q : fwd_out_) q.reserve(cfg_.queue_capacity);
    for (auto& q : rev_out_) q.reserve(cfg_.queue_capacity);
  }

  /// Try to accept a forward packet at input port `in_port`, destined for
  /// output port `out_port`. Returns true if the packet was consumed
  /// (enqueued or combined); false if the switch is full (caller retries
  /// next cycle). On combining, the event is appended to *events.
  bool offer_request(FwdPacket<M>&& pkt, unsigned in_port, unsigned out_port,
                     std::vector<CombineEvent>* events) {
    KRS_EXPECTS(in_port < 2 && out_port < 2);
    auto& q = fwd_out_[out_port];
    if (wait_buffer_.absorb(q, pkt, static_cast<int>(in_port), events)) {
      return true;
    }
    if (q.size() >= cfg_.queue_capacity) {
      ++stats_.stalls;
      return false;
    }
    stats_.request_bytes += kMessageHeaderBytes + pkt.req.f.encoded_size_bytes();
    pkt.path.push_back(static_cast<std::uint8_t>(in_port));
    q.push_back(std::move(pkt));
    ++stats_.requests_forwarded;
    stats_.max_queue_depth =
        std::max<std::uint64_t>(stats_.max_queue_depth, q.size());
    return true;
  }

  /// id (8) + address (8): the fixed part of a request message.
  static constexpr std::size_t kMessageHeaderBytes = 16;

  /// Head of the output queue for a port (next packet to leave toward the
  /// next stage / memory), or nullptr.
  [[nodiscard]] const FwdPacket<M>* peek_output(unsigned out_port) const {
    const auto& q = fwd_out_[out_port];
    return q.empty() ? nullptr : &q.front();
  }

  FwdPacket<M> pop_output(unsigned out_port) {
    auto& q = fwd_out_[out_port];
    KRS_EXPECTS(!q.empty());
    FwdPacket<M> p = std::move(q.front());
    q.pop_front();
    return p;
  }

  /// Accept a reply coming back from the memory side. Decombines against
  /// the wait buffer and stages all resulting replies on the reverse
  /// queues of their input ports, the representative's last (a reversed
  /// record may rewrite its value).
  void accept_reply(RevPacket<M>&& pkt) {
    wait_buffer_.decombine(
        pkt, [&](RevPacket<M>&& second) { route_out(std::move(second)); });
    route_out(std::move(pkt));
  }

  [[nodiscard]] const RevPacket<M>* peek_reply(unsigned in_port) const {
    const auto& q = rev_out_[in_port];
    return q.empty() ? nullptr : &q.front();
  }

  RevPacket<M> pop_reply(unsigned in_port) {
    auto& q = rev_out_[in_port];
    KRS_EXPECTS(!q.empty());
    RevPacket<M> p = std::move(q.front());
    q.pop_front();
    return p;
  }

  [[nodiscard]] SwitchStats stats() const noexcept {
    SwitchStats s = stats_;
    const CombineCounters& c = wait_buffer_.counters();
    s.combines = c.combines;
    s.reversed_combines = c.reversed;
    s.combine_declined_policy = c.declined_policy;
    s.combine_declined_waitbuf = c.declined_full;
    s.max_wait_buffer = c.max_records;
    return s;
  }

  /// True when no request or reply traffic is pending in this switch.
  [[nodiscard]] bool idle() const noexcept {
    return fwd_out_[0].empty() && fwd_out_[1].empty() && rev_out_[0].empty() &&
           rev_out_[1].empty() && wait_buffer_.empty();
  }

  [[nodiscard]] std::size_t wait_buffer_size() const noexcept {
    return wait_buffer_.records();
  }

 private:
  void route_out(RevPacket<M>&& pkt) {
    KRS_EXPECTS(!pkt.path.empty());
    const unsigned port = pkt.path.back();
    pkt.path.pop_back();
    KRS_EXPECTS(port < 2);
    rev_out_[port].push_back(std::move(pkt));
    ++stats_.replies_forwarded;
  }

  SwitchConfig cfg_;
  util::RingBuffer<FwdPacket<M>> fwd_out_[2];
  util::RingBuffer<RevPacket<M>> rev_out_[2];
  CombineBuffer<M> wait_buffer_;
  SwitchStats stats_;  ///< the combine fields are filled by stats()
};

}  // namespace krs::net
