// §4.2's combining rule at its one home, net::CombineBuffer, for the cases
// the switch and module suites do not reach: the youngest-match scan and a
// declined compose ending it, over a memory module's FIFO (no hop, no
// records cap), and decombination order.
#include <gtest/gtest.h>

#include <vector>

#include "core/any_rmw.hpp"
#include "core/fetch_theta.hpp"
#include "core/load_store_swap.hpp"
#include "net/combine_buffer.hpp"
#include "util/ring.hpp"

namespace {

using namespace krs::core;
using namespace krs::net;
using krs::util::RingBuffer;

template <Rmw M>
FwdPacket<M> make_req(std::uint32_t proc, Addr addr, M f) {
  FwdPacket<M> p;
  p.req = Request<M>{{proc, 0}, addr, f, 0};
  p.path.push_back(static_cast<std::uint8_t>(proc));
  return p;
}

TEST(CombineBuffer, ModuleFifoCombinesWithYoungestSameAddressEntry) {
  CombineBuffer<FetchAdd> buf(CombinePolicy::kUnlimited);
  RingBuffer<FwdPacket<FetchAdd>> fifo;
  fifo.push_back(make_req(0, 5, FetchAdd(1)));
  fifo.push_back(make_req(1, 7, FetchAdd(2)));
  fifo.push_back(make_req(2, 5, FetchAdd(3)));
  std::vector<CombineEvent> ev;
  ASSERT_TRUE(buf.absorb(fifo, make_req(3, 5, FetchAdd(4)), -1, &ev));
  ASSERT_EQ(ev.size(), 1u);
  EXPECT_EQ(ev[0].representative, (ReqId{2, 0}));
  EXPECT_EQ(ev[0].absorbed, (ReqId{3, 0}));
  EXPECT_EQ(fifo[0].req.f, FetchAdd(1));  // the older match is untouched
  EXPECT_EQ(fifo[2].req.f, FetchAdd(7));
  EXPECT_TRUE(fifo[2].combined);
  EXPECT_EQ(fifo.size(), 3u);  // combining takes no slot
}

TEST(CombineBuffer, DeclinedComposeEndsTheScan) {
  CombineBuffer<AnyRmw> buf(CombinePolicy::kUnlimited);
  RingBuffer<FwdPacket<AnyRmw>> fifo;
  fifo.push_back(make_req(0, 9, AnyRmw(FetchAdd(5))));
  fifo.push_back(make_req(1, 9, AnyRmw(LssOp::store(7))));
  const auto add = make_req(2, 9, AnyRmw(FetchAdd(1)));
  // The youngest match (a store) declines a fetch-and-add; the older
  // fetch-and-add would compose, but combining past the youngest could
  // reorder the arrival against it (M2.3), so the arrival queues alone.
  std::vector<CombineEvent> ev;
  EXPECT_FALSE(buf.absorb(fifo, add, -1, &ev));
  EXPECT_TRUE(ev.empty());
  EXPECT_EQ(fifo[0].req.f, AnyRmw(FetchAdd(5)));
  EXPECT_TRUE(buf.empty());
  // A store does compose with the youngest store.
  EXPECT_TRUE(buf.absorb(fifo, make_req(3, 9, AnyRmw(LssOp::store(8))), -1,
                         &ev));
  EXPECT_EQ(ev.size(), 1u);
}

TEST(CombineBuffer, DecombinesInCombineOrderAlongEachPath) {
  CombineBuffer<FetchAdd> buf(CombinePolicy::kUnlimited, 8);
  RingBuffer<FwdPacket<FetchAdd>> fifo;
  fifo.push_back(make_req(0, 5, FetchAdd(1)));
  for (std::uint32_t p = 1; p <= 3; ++p) {
    ASSERT_TRUE(buf.absorb(fifo, make_req(p, 5, FetchAdd(p + 1)),
                           static_cast<int>(p + 10), nullptr));
  }
  EXPECT_EQ(buf.records(), 3u);
  EXPECT_EQ(fifo[0].req.f, FetchAdd(10));

  RevPacket<FetchAdd> rep;
  rep.reply = Reply<FetchAdd>{{0, 0}, 100, 42};
  std::vector<RevPacket<FetchAdd>> out;
  buf.decombine(rep, [&](RevPacket<FetchAdd>&& r) { out.push_back(r); });
  ASSERT_EQ(out.size(), 3u);
  const Word want[3] = {101, 103, 106};  // 100 + 1, then + 2, then + 3
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(out[i].reply.id, (ReqId{i + 1, 0}));
    EXPECT_EQ(out[i].reply.value, want[i]);
    EXPECT_EQ(out[i].reply.completed, 42u);
    ASSERT_EQ(out[i].path.size(), 2u);  // own path, then the arrival hop
    EXPECT_EQ(out[i].path.back(), i + 11);
  }
  EXPECT_EQ(rep.reply.value, 100u);  // not reversed: unchanged
  EXPECT_TRUE(buf.empty());
}

}  // namespace
