// §5.5's two synchronization disciplines, module- and machine-level:
// busy-waiting (failed conditionals are NACKed and retried — traffic) vs
// queueing at memory (failed conditionals park until executable — no
// retry traffic, but possible deadlock, which run() detects).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "core/full_empty.hpp"
#include "mem/module.hpp"
#include "sim/machine.hpp"
#include "verify/memory_checker.hpp"
#include "workload/workloads.hpp"

namespace {

using namespace krs;
using core::FEOp;
using core::FEWord;
using mem::MemoryModule;
using mem::ModuleConfig;

net::FwdPacket<FEOp> fe_req(std::uint32_t proc, std::uint32_t seq,
                            core::Addr addr, FEOp op) {
  net::FwdPacket<FEOp> p;
  p.req = core::Request<FEOp>{{proc, seq}, addr, op, 0};
  return p;
}

/// Offers `p` and requires the module to take it.
void accept(MemoryModule<FEOp>& m, net::FwdPacket<FEOp> p) {
  ASSERT_TRUE(m.try_accept(p));
}

ModuleConfig queueing_cfg() {
  ModuleConfig cfg;
  cfg.latency = 0;
  cfg.queue_failed_conditionals = true;
  return cfg;
}

TEST(Queueing, ParkedGetWakesOnPut) {
  MemoryModule<FEOp> m(queueing_cfg(), FEWord{0, false});
  // Consumer's get arrives first: cell empty → parked, no reply.
  accept(m, fe_req(0, 0, 5, FEOp::load_and_clear()));
  std::vector<net::RevPacket<FEOp>> out;
  m.tick(0, out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(m.parked_count(), 1u);
  EXPECT_FALSE(m.idle());
  // Producer's put arrives: executes, wakes the get.
  accept(m, fe_req(1, 0, 5, FEOp::store_if_clear_and_set(42)));
  m.tick(1, out);
  ASSERT_EQ(out.size(), 1u);  // the put's reply
  m.tick(2, out);
  ASSERT_EQ(out.size(), 2u);  // the woken get's reply
  EXPECT_EQ(out[1].reply.id, (core::ReqId{0, 0}));
  EXPECT_EQ(out[1].reply.value.value, 42u);
  EXPECT_TRUE(out[1].reply.value.full);  // guard held when it executed
  EXPECT_FALSE(m.value_at(5).full);      // get emptied the cell again
  EXPECT_EQ(m.parked_count(), 0u);
  EXPECT_EQ(m.stats().woken_ops, 1u);
}

TEST(Queueing, ParkedPutWakesOnGet) {
  MemoryModule<FEOp> m(queueing_cfg(), FEWord{7, true});
  // Cell full: a second put parks.
  accept(m, fe_req(0, 0, 5, FEOp::store_if_clear_and_set(42)));
  std::vector<net::RevPacket<FEOp>> out;
  m.tick(0, out);
  EXPECT_EQ(m.parked_count(), 1u);
  accept(m, fe_req(1, 0, 5, FEOp::load_and_clear()));
  m.tick(1, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].reply.value.value, 7u);  // get took the old value
  m.tick(2, out);
  ASSERT_EQ(out.size(), 2u);  // woken put
  EXPECT_EQ(m.value_at(5), (FEWord{42, true}));
}

TEST(Queueing, ChainOfAlternatingWakes) {
  // Several parked gets and puts resolve one per update, §5.5's
  // "alternating loads and stores" schedule.
  MemoryModule<FEOp> m(queueing_cfg(), FEWord{0, false});
  std::vector<net::RevPacket<FEOp>> out;
  // Three gets park.
  for (std::uint32_t c = 0; c < 3; ++c) {
    accept(m, fe_req(c, 0, 5, FEOp::load_and_clear()));
    m.tick(c, out);
  }
  EXPECT_EQ(m.parked_count(), 3u);
  // Three puts: each executes and wakes exactly one get.
  core::Tick t = 3;
  for (std::uint32_t p = 0; p < 3; ++p) {
    accept(m, fe_req(10 + p, 0, 5, FEOp::store_if_clear_and_set(100 + p)));
  }
  while (!m.idle() && t < 50) m.tick(t++, out);
  EXPECT_TRUE(m.idle());
  ASSERT_EQ(out.size(), 6u);
  // Every consumer got a distinct produced value.
  std::set<core::Word> got;
  for (const auto& r : out) {
    if (r.reply.id.proc < 3) got.insert(r.reply.value.value);
  }
  EXPECT_EQ(got.size(), 3u);
  EXPECT_FALSE(m.value_at(5).full);
}

TEST(Queueing, DeadlockIsDetectedNotSilent) {
  // A get with no matching put parks forever: the paper's deadlock caveat.
  MemoryModule<FEOp> m(queueing_cfg(), FEWord{0, false});
  accept(m, fe_req(0, 0, 5, FEOp::load_and_clear()));
  std::vector<net::RevPacket<FEOp>> out;
  for (core::Tick t = 0; t < 20; ++t) m.tick(t, out);
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(m.idle());
  EXPECT_EQ(m.parked_count(), 1u);
}

// --- machine level: queueing vs busy-waiting --------------------------------

struct Discipline {
  std::uint64_t cycles;
  std::uint64_t attempts;     // ops issued incl. retries
  std::uint64_t handoffs;
};

Discipline producer_consumer(bool queueing, std::uint64_t rounds) {
  sim::MachineConfig<FEOp> cfg;
  cfg.log2_procs = 3;
  cfg.initial_value = FEWord{0, false};
  cfg.window = 1;
  // Combining tables do not preserve blocking semantics; §5.5's queueing
  // analysis assumes uncombined alternating operations.
  cfg.switch_cfg.policy = net::CombinePolicy::kNone;
  cfg.mem_cfg.queue_failed_conditionals = queueing;
  const std::uint32_t n = 1u << cfg.log2_procs;

  std::vector<std::unique_ptr<proc::TrafficSource<FEOp>>> src;
  std::vector<workload::RetryingSource<FEOp>*> handles;
  for (std::uint32_t p = 0; p < n; ++p) {
    std::deque<workload::RetryingSource<FEOp>::Item> items;
    const bool producer = p % 2 == 0;
    for (std::uint64_t r = 0; r < rounds; ++r) {
      if (producer) {
        items.push_back({9, FEOp::store_if_clear_and_set(p * 1000 + r)});
      } else {
        items.push_back({9, FEOp::load_and_clear()});
      }
    }
    auto s = std::make_unique<workload::RetryingSource<FEOp>>(
        std::move(items), 6);
    handles.push_back(s.get());
    src.push_back(std::move(s));
  }
  sim::Machine<FEOp> m(cfg, std::move(src));
  const bool ok = m.run(5'000'000);
  EXPECT_TRUE(ok);
  const auto check = verify::check_machine(m, FEWord{0, false});
  EXPECT_TRUE(check.ok) << check.error;
  Discipline d{};
  d.cycles = m.stats().cycles;
  for (auto* h : handles) d.attempts += h->attempts();
  for (const auto& op : m.completed()) {
    if (op.f.kind() == core::FEKind::kLoadClear && op.f.succeeded(op.reply)) {
      ++d.handoffs;
    }
  }
  return d;
}

TEST(Queueing, ReducesTrafficVersusBusyWaiting) {
  constexpr std::uint64_t kRounds = 24;
  const auto busy = producer_consumer(false, kRounds);
  const auto queued = producer_consumer(true, kRounds);
  const std::uint64_t logical = 8 * kRounds;  // 4 producers + 4 consumers
  // Busy-waiting retries inflate issued operations well beyond the
  // logical count; queueing issues each exactly once.
  EXPECT_GT(busy.attempts, logical);
  EXPECT_EQ(queued.attempts, logical);
  // Both disciplines hand every produced value to exactly one consumer.
  EXPECT_EQ(busy.handoffs, 4 * kRounds);
  EXPECT_EQ(queued.handoffs, 4 * kRounds);
}

TEST(Queueing, MachineDeadlockDetected) {
  // One consumer, no producers: the machine never drains, and run()
  // reports it (rather than spinning forever or asserting).
  sim::MachineConfig<FEOp> cfg;
  cfg.log2_procs = 2;
  cfg.initial_value = FEWord{0, false};
  cfg.mem_cfg.queue_failed_conditionals = true;
  cfg.switch_cfg.policy = net::CombinePolicy::kNone;
  std::vector<std::unique_ptr<proc::TrafficSource<FEOp>>> src;
  for (std::uint32_t p = 0; p < 4; ++p) {
    std::deque<workload::ScriptedSource<FEOp>::Item> items;
    if (p == 0) items.push_back({0, 9, FEOp::load_and_clear()});
    src.push_back(
        std::make_unique<workload::ScriptedSource<FEOp>>(std::move(items)));
  }
  sim::Machine<FEOp> m(cfg, std::move(src));
  EXPECT_FALSE(m.run(5000));
  EXPECT_EQ(m.module(m.module_of(9)).parked_count(), 1u);
}

}  // namespace
