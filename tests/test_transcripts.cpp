// Pinned transcripts: for fixed seeds, each simulated machine must keep
// reproducing the exact same run — clock, completed operations, combine
// count, and a hash of the full completed-op and combine-event transcripts.
// The expected values were recorded from a build before the combining rule
// moved into net::CombineBuffer, so any drift in how a switch, a router or
// a memory FIFO combines and decombines shows up here as a changed hash.
// The two module-combining pins were recorded before the machines shared
// one shell (sim/shell.hpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/fetch_theta.hpp"
#include "core/load_store_swap.hpp"
#include "sim/bus_machine.hpp"
#include "sim/hypercube_machine.hpp"
#include "sim/machine.hpp"
#include "workload/workloads.hpp"

namespace {

using namespace krs;
using core::FetchAdd;
using core::LssOp;

template <core::Rmw M>
using SourceVec = std::vector<std::unique_ptr<proc::TrafficSource<M>>>;

constexpr core::Tick kMaxCycles = 1000000;

/// FNV-1a over 64-bit words.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
};

struct Pin {
  core::Tick cycles;
  std::uint64_t ops;
  std::uint64_t combines;
  std::uint64_t completed_hash;
  std::uint64_t combine_log_hash;
};

template <typename MachineT>
void expect_pinned(const MachineT& m, const Pin& want) {
  Fnv ops;
  for (const auto& op : m.completed()) {
    ops.add(op.id.proc);
    ops.add(op.id.seq);
    ops.add(static_cast<std::uint64_t>(op.reply));
    ops.add(op.issued);
    ops.add(op.completed);
  }
  Fnv log;
  for (const auto& ev : m.combine_log()) {
    log.add(ev.representative.proc);
    log.add(ev.representative.seq);
    log.add(ev.absorbed.proc);
    log.add(ev.absorbed.seq);
    log.add(ev.addr);
    log.add(ev.reversed ? 1 : 0);
  }
  EXPECT_EQ(m.now(), want.cycles);
  EXPECT_EQ(m.completed().size(), want.ops);
  EXPECT_EQ(m.combine_log().size(), want.combines);
  EXPECT_EQ(ops.h, want.completed_hash);
  EXPECT_EQ(log.h, want.combine_log_hash);
}

template <core::Rmw M, typename Factory>
SourceVec<M> hot_spot(std::uint32_t procs, std::uint64_t total, double hot,
                      Factory factory, std::uint64_t seed) {
  SourceVec<M> src;
  for (std::uint32_t p = 0; p < procs; ++p) {
    typename workload::HotSpotSource<M>::Params params;
    params.total = total;
    params.hot_fraction = hot;
    params.hot_addr = 5;
    params.addr_space = 64;
    src.push_back(std::make_unique<workload::HotSpotSource<M>>(
        params, factory, seed * 1009 + p));
  }
  return src;
}

FetchAdd random_add(util::Xoshiro256& r) { return FetchAdd(r.below(50)); }

LssOp random_lss(util::Xoshiro256& r) {
  switch (r.below(3)) {
    case 0:
      return LssOp::load();
    case 1:
      return LssOp::store(r.below(100));
    default:
      return LssOp::swap(r.below(100));
  }
}

/// §7's FIFO combining at the memory module, into slow (4-cycle) banks.
mem::ModuleConfig module_combining() {
  mem::ModuleConfig c;
  c.combine_in_queue = true;
  c.service_interval = 4;
  return c;
}

void run_omega(net::CombinePolicy policy, std::size_t wait_buffer,
               const Pin& want, const mem::ModuleConfig& mem_cfg = {}) {
  sim::MachineConfig<FetchAdd> cfg;
  cfg.log2_procs = 4;
  cfg.window = 4;
  cfg.switch_cfg.policy = policy;
  cfg.switch_cfg.wait_buffer_capacity = wait_buffer;
  cfg.mem_cfg = mem_cfg;
  sim::Machine<FetchAdd> m(cfg,
                           hot_spot<FetchAdd>(16, 64, 0.5, random_add, 11));
  ASSERT_TRUE(m.run(kMaxCycles));
  expect_pinned(m, want);
  // Each combining configuration reaches the decline path it pins.
  std::uint64_t declined_policy = 0;
  std::uint64_t declined_full = 0;
  for (unsigned st = 0; st < cfg.log2_procs; ++st) {
    for (std::uint32_t row = 0; row < 8; ++row) {
      declined_policy += m.switch_stats(st, row).combine_declined_policy;
      declined_full += m.switch_stats(st, row).combine_declined_waitbuf;
    }
  }
  EXPECT_EQ(declined_policy > 0, policy == net::CombinePolicy::kPairwise);
  EXPECT_EQ(declined_full > 0, wait_buffer < 64);
}

void run_hypercube(net::CombinePolicy policy, const Pin& want,
                   const mem::ModuleConfig& mem_cfg = {}) {
  sim::HypercubeConfig<FetchAdd> cfg;
  cfg.dimensions = 4;
  cfg.policy = policy;
  cfg.mem_cfg = mem_cfg;
  sim::HypercubeMachine<FetchAdd> m(
      cfg, hot_spot<FetchAdd>(16, 64, 0.5, random_add, 13));
  ASSERT_TRUE(m.run(kMaxCycles));
  expect_pinned(m, want);
}

TEST(Transcript, OmegaNoCombining) {
  run_omega(net::CombinePolicy::kNone, 64,
            {555, 1024, 0, 11519580886319449926u, 14695981039346656037u});
}

TEST(Transcript, OmegaPairwise) {
  run_omega(net::CombinePolicy::kPairwise, 64,
            {218, 1024, 357, 13179336248118271919u, 12159147126147782760u});
}

TEST(Transcript, OmegaUnlimited) {
  run_omega(net::CombinePolicy::kUnlimited, 64,
            {213, 1024, 367, 12277137899374394655u, 12128562196820281919u});
}

TEST(Transcript, OmegaUnlimitedSmallWaitBuffer) {
  run_omega(net::CombinePolicy::kUnlimited, 2,
            {276, 1024, 287, 8648967805139062384u, 3771352196693844041u});
}

TEST(Transcript, OmegaModuleCombining) {
  run_omega(net::CombinePolicy::kNone, 64,
            {569, 1024, 400, 10730250080886619956u, 5534687681890472991u},
            module_combining());
}

TEST(Transcript, OmegaLssOrderReversal) {
  sim::MachineConfig<LssOp> cfg;
  cfg.log2_procs = 4;
  cfg.window = 4;
  cfg.switch_cfg.allow_order_reversal = true;
  sim::Machine<LssOp> m(cfg, hot_spot<LssOp>(16, 64, 0.6, random_lss, 17));
  ASSERT_TRUE(m.run(kMaxCycles));
  std::size_t reversed = 0;
  for (const auto& ev : m.combine_log()) reversed += ev.reversed ? 1 : 0;
  EXPECT_GT(reversed, 0u);
  expect_pinned(
      m, {215, 1024, 491, 6071976070472181276u, 17121861069468850601u});
}

TEST(Transcript, BusModuleCombining) {
  sim::BusMachineConfig<FetchAdd> cfg;
  cfg.processors = 8;
  cfg.banks = 2;
  cfg.bank_cfg.combine_in_queue = true;
  cfg.bank_cfg.service_interval = 3;
  sim::BusMachine<FetchAdd> m(cfg,
                              hot_spot<FetchAdd>(8, 64, 0.5, random_add, 19));
  ASSERT_TRUE(m.run(kMaxCycles));
  expect_pinned(
      m, {531, 512, 215, 17026232485345550036u, 11877926816079736965u});
}

TEST(Transcript, HypercubeNoCombining) {
  run_hypercube(net::CombinePolicy::kNone,
                {603, 1024, 0, 9176392596453136894u, 14695981039346656037u});
}

TEST(Transcript, HypercubeUnlimited) {
  run_hypercube(net::CombinePolicy::kUnlimited,
                {352, 1024, 247, 14107040478277890438u, 6188110891884879272u});
}

TEST(Transcript, HypercubeModuleCombining) {
  run_hypercube(net::CombinePolicy::kNone,
                {305, 1024, 500, 13830361019822592315u, 9433166413691999129u},
                module_combining());
}

}  // namespace
