// The memory module: FIFO service, memory-side RMW semantics, reply
// latency, access logging, and the processor-side lock protocol.
#include <gtest/gtest.h>

#include <vector>

#include "core/fetch_theta.hpp"
#include "mem/module.hpp"

namespace {

using namespace krs::core;
using namespace krs::mem;
using krs::net::FwdPacket;
using krs::net::RevPacket;
using krs::net::TxnKind;

FwdPacket<FetchAdd> rmw(std::uint32_t proc, std::uint32_t seq, Addr addr,
                        Word add) {
  FwdPacket<FetchAdd> p;
  p.req = Request<FetchAdd>{{proc, seq}, addr, FetchAdd(add), 0};
  p.path = {0, 1};
  return p;
}

/// Offers `p` and requires the module to take it.
template <typename M>
void accept(MemoryModule<M>& m, FwdPacket<M> p,
            std::vector<krs::net::CombineEvent>* events = nullptr) {
  ASSERT_TRUE(m.try_accept(p, events));
}

TEST(Module, ServicesFifoWithLatency) {
  MemoryModule<FetchAdd> m({8, 3}, 0);
  accept(m, rmw(0, 0, 10, 5));
  accept(m, rmw(1, 0, 10, 7));
  std::vector<RevPacket<FetchAdd>> out;
  // Cycle 0: service first (reply due at 3).
  m.tick(0, out);
  EXPECT_TRUE(out.empty());
  m.tick(1, out);
  EXPECT_TRUE(out.empty());
  m.tick(2, out);
  EXPECT_TRUE(out.empty());
  m.tick(3, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].reply.id, (ReqId{0, 0}));
  EXPECT_EQ(out[0].reply.value, 0u);
  m.tick(4, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].reply.id, (ReqId{1, 0}));
  EXPECT_EQ(out[1].reply.value, 5u);  // after the first fetch-add
  EXPECT_EQ(m.value_at(10), 12u);
}

TEST(Module, OneServicePerCycle) {
  MemoryModule<FetchAdd> m({8, 0}, 0);
  for (int i = 0; i < 4; ++i) accept(m, rmw(0, i, 1, 1));
  std::vector<RevPacket<FetchAdd>> out;
  for (Tick t = 0; t < 4; ++t) m.tick(t, out);
  // Latency 0: each service emits on its own cycle.
  EXPECT_EQ(out.size(), 4u);
  EXPECT_EQ(m.value_at(1), 4u);
}

TEST(Module, AccessLogRecordsOrder) {
  MemoryModule<FetchAdd> m({8, 0}, 0);
  accept(m, rmw(3, 0, 4, 1));
  accept(m, rmw(1, 0, 6, 1));
  std::vector<RevPacket<FetchAdd>> out;
  m.tick(0, out);
  m.tick(1, out);
  ASSERT_EQ(m.access_log().size(), 2u);
  EXPECT_EQ(m.access_log()[0].id, (ReqId{3, 0}));
  EXPECT_EQ(m.access_log()[0].addr, 4u);
  EXPECT_EQ(m.access_log()[1].id, (ReqId{1, 0}));
}

TEST(Module, CapacityRespected) {
  MemoryModule<FetchAdd> m({2, 1}, 0);
  auto p1 = rmw(0, 0, 1, 1), p2 = rmw(0, 1, 1, 1), p3 = rmw(0, 2, 1, 1);
  EXPECT_TRUE(m.try_accept(p1));
  EXPECT_TRUE(m.try_accept(p2));
  EXPECT_FALSE(m.try_accept(p3));
  EXPECT_EQ(p3.req.id, (ReqId{0, 2}));  // refused, left untouched
  EXPECT_EQ(p3.path.size(), 2u);
}

TEST(Module, ProcessorSideLockBlocksOtherTraffic) {
  MemoryModule<FetchAdd> m({8, 0}, 100);
  // P0 read-locks address 5.
  auto rl = rmw(0, 0, 5, 0);
  rl.kind = TxnKind::kReadLock;
  accept(m, std::move(rl));
  // P1's RMW arrives behind it.
  accept(m, rmw(1, 0, 5, 7));
  std::vector<RevPacket<FetchAdd>> out;
  m.tick(0, out);  // services the read-lock
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].reply.value, 100u);
  // Locked: P1's request stalls.
  m.tick(1, out);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(m.stats().locked_stall_cycles, 1u);
  // P0's write-unlock bypasses the queue and unlocks.
  auto wu = rmw(0, 0, 5, 0);
  wu.kind = TxnKind::kWriteUnlock;
  wu.store_value = 142;
  EXPECT_TRUE(m.try_accept(wu));  // bypass even if queue were full
  m.tick(2, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(m.value_at(5), 142u);
  // Now P1's RMW proceeds against the written-back value.
  m.tick(3, out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[2].reply.value, 142u);
  EXPECT_EQ(m.value_at(5), 149u);
}

TEST(Module, WriteUnlockBypassesCapacity) {
  MemoryModule<FetchAdd> m({1, 0}, 0);
  auto rl = rmw(0, 0, 5, 0);
  rl.kind = TxnKind::kReadLock;
  accept(m, std::move(rl));
  std::vector<RevPacket<FetchAdd>> out;
  m.tick(0, out);  // lock taken, queue now has space
  accept(m, rmw(1, 0, 5, 1));  // fills the queue
  auto wu = rmw(0, 0, 5, 0);
  wu.kind = TxnKind::kWriteUnlock;
  wu.store_value = 9;
  EXPECT_TRUE(m.try_accept(wu));  // would deadlock otherwise
  m.tick(1, out);  // unlock bypasses the queued RMW
  EXPECT_EQ(m.value_at(5), 9u);
  m.tick(2, out);
  EXPECT_EQ(m.value_at(5), 10u);
  EXPECT_TRUE(m.idle());
}

// §7's bus-FIFO combining: requests to one bank combine in the module's
// input queue.
TEST(Module, QueueCombiningMergesAndDecombines) {
  ModuleConfig cfg;
  cfg.queue_capacity = 8;
  cfg.latency = 0;
  cfg.combine_in_queue = true;
  MemoryModule<FetchAdd> m(cfg, 100);
  std::vector<krs::net::CombineEvent> ev;
  accept(m, rmw(0, 0, 5, 3), &ev);
  accept(m, rmw(1, 0, 5, 4), &ev);
  ASSERT_EQ(ev.size(), 1u);
  EXPECT_EQ(ev[0].representative, (ReqId{0, 0}));
  EXPECT_EQ(m.stats().queue_combines, 1u);
  std::vector<RevPacket<FetchAdd>> out;
  m.tick(0, out);
  // One service produced BOTH replies (that is the throughput win).
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].reply.value, 100u);
  EXPECT_EQ(out[1].reply.value, 103u);
  EXPECT_EQ(m.value_at(5), 107u);
  EXPECT_EQ(m.stats().rmw_ops, 1u);
  EXPECT_TRUE(m.idle());
}

TEST(Module, QueueCombiningNeedsNoSlot) {
  ModuleConfig cfg;
  cfg.queue_capacity = 1;
  cfg.latency = 0;
  cfg.combine_in_queue = true;
  MemoryModule<FetchAdd> m(cfg, 0);
  auto p1 = rmw(0, 0, 5, 1);
  accept(m, std::move(p1));
  auto p2 = rmw(1, 0, 5, 2);
  EXPECT_TRUE(m.try_accept(p2));  // full, but combinable
  EXPECT_EQ(m.stats().queue_combines, 1u);
  auto p3 = rmw(2, 0, 9, 1);
  EXPECT_FALSE(m.try_accept(p3));  // full, different address
  EXPECT_EQ(p3.path.size(), 2u);   // refused, left untouched
}

/// Fetch-and-add whose try_compose counts its calls.
struct CountingAdd {
  using value_type = Word;
  static inline int composes = 0;
  Word add = 0;

  [[nodiscard]] Word apply(Word x) const { return x + add; }
  static CountingAdd identity() { return {}; }
  [[nodiscard]] std::size_t encoded_size_bytes() const { return sizeof(Word); }
  friend CountingAdd compose(const CountingAdd& f, const CountingAdd& g) {
    return {f.add + g.add};
  }
  friend std::optional<CountingAdd> try_compose(const CountingAdd& f,
                                                const CountingAdd& g) {
    ++composes;
    return compose(f, g);
  }
};
static_assert(Rmw<CountingAdd>);

TEST(Module, FullFifoComposesACombiningArrivalOnce) {
  // A full FIFO offered a combinable arrival decides, absorbs and records
  // it in one pass: one compose per combine, and none for a refusal.
  ModuleConfig cfg;
  cfg.queue_capacity = 1;
  cfg.combine_in_queue = true;
  MemoryModule<CountingAdd> m(cfg, 0);
  const auto req = [](std::uint32_t proc, Addr addr, Word add) {
    FwdPacket<CountingAdd> p;
    p.req = Request<CountingAdd>{{proc, 0}, addr, CountingAdd{add}, 0};
    return p;
  };
  auto p1 = req(0, 5, 1);
  ASSERT_TRUE(m.try_accept(p1));
  CountingAdd::composes = 0;
  std::vector<krs::net::CombineEvent> ev;
  auto p2 = req(1, 5, 2);
  EXPECT_TRUE(m.try_accept(p2, &ev));
  EXPECT_EQ(CountingAdd::composes, 1);
  EXPECT_EQ(ev.size(), 1u);
  auto p3 = req(2, 9, 4);
  EXPECT_FALSE(m.try_accept(p3, &ev));
  EXPECT_EQ(CountingAdd::composes, 1);
  EXPECT_EQ(m.stats().queue_combines, 1u);
}

TEST(Module, QueueCombiningOffByDefault) {
  MemoryModule<FetchAdd> m({8, 0}, 0);
  std::vector<krs::net::CombineEvent> ev;
  accept(m, rmw(0, 0, 5, 3), &ev);
  accept(m, rmw(1, 0, 5, 4), &ev);
  EXPECT_TRUE(ev.empty());
  EXPECT_EQ(m.stats().queue_combines, 0u);
}

TEST(Module, IdleReflectsState) {
  MemoryModule<FetchAdd> m({8, 2}, 0);
  EXPECT_TRUE(m.idle());
  accept(m, rmw(0, 0, 1, 1));
  EXPECT_FALSE(m.idle());
  std::vector<RevPacket<FetchAdd>> out;
  m.tick(0, out);
  EXPECT_FALSE(m.idle());  // reply still pending
  m.tick(1, out);
  m.tick(2, out);
  EXPECT_TRUE(m.idle());
}

}  // namespace
