// The Theorem 4.2 checker itself: it must accept correct histories and
// REJECT each kind of corruption (wrong reply, wrong final value, lost or
// duplicated request, same-processor reordering). A verifier that cannot
// fail is no verifier.
#include <gtest/gtest.h>

#include <vector>

#include "core/fetch_theta.hpp"
#include "mem/module.hpp"
#include "net/switch.hpp"
#include "proc/processor.hpp"
#include "verify/memory_checker.hpp"

namespace {

using namespace krs;
using core::FetchAdd;
using core::ReqId;
using core::Word;

/// A hand-built "machine" exposing exactly the interface check_machine
/// needs, so histories can be corrupted surgically.
struct FakeModule {
  std::vector<mem::AccessRecord> log;
  const std::vector<mem::AccessRecord>& access_log() const { return log; }
};

struct FakeMachine {
  using rmw_type = FetchAdd;

  std::vector<proc::CompletedOp<FetchAdd>> ops;
  std::vector<net::CombineEvent> combines;
  std::vector<FakeModule> modules;
  std::vector<std::pair<core::Addr, Word>> finals;

  const std::vector<proc::CompletedOp<FetchAdd>>& completed() const {
    return ops;
  }
  const std::vector<net::CombineEvent>& combine_log() const {
    return combines;
  }
  std::uint32_t module_count() const {
    return static_cast<std::uint32_t>(modules.size());
  }
  const FakeModule& module(std::uint32_t i) const { return modules[i]; }
  Word value_at(core::Addr a) const {
    for (const auto& [addr, v] : finals) {
      if (addr == a) return v;
    }
    return 0;
  }
};

/// A correct two-processor history: P0 adds 5 (combined with P1's add 7).
FakeMachine good_history() {
  FakeMachine m;
  m.modules.resize(2);
  const ReqId id0{0, 0}, id1{1, 0};
  m.ops.push_back({id0, 4, FetchAdd(5), /*reply=*/0, 0, 10});
  m.ops.push_back({id1, 4, FetchAdd(7), /*reply=*/5, 0, 10});
  m.combines.push_back({id0, id1, 4});
  m.modules[0].log.push_back({4, id0});  // only the representative reaches
  m.finals = {{4, 12}};
  return m;
}

TEST(Checker, AcceptsCorrectHistory) {
  const auto res = verify::check_machine(good_history(), 0);
  EXPECT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.operations_checked, 2u);
  EXPECT_EQ(res.combined_messages_expanded, 1u);
}

TEST(Checker, RejectsWrongReply) {
  auto m = good_history();
  m.ops[1].reply = 6;  // should be 5
  EXPECT_FALSE(verify::check_machine(m, 0).ok);
}

TEST(Checker, RejectsWrongInitialAssumption) {
  // Same history checked against the wrong initial value must fail.
  EXPECT_FALSE(verify::check_machine(good_history(), 1).ok);
}

TEST(Checker, RejectsWrongFinalValue) {
  auto m = good_history();
  m.finals = {{4, 13}};
  EXPECT_FALSE(verify::check_machine(m, 0).ok);
}

TEST(Checker, RejectsLostRequest) {
  auto m = good_history();
  m.combines.clear();  // id1 now never reaches memory
  EXPECT_FALSE(verify::check_machine(m, 0).ok);
}

TEST(Checker, RejectsDoubleProcessing) {
  auto m = good_history();
  m.modules[0].log.push_back({4, m.ops[1].id});  // id1 both combined AND serviced
  EXPECT_FALSE(verify::check_machine(m, 0).ok);
}

TEST(Checker, RejectsSameProcessorReordering) {
  // P0 issues seq 0 then seq 1 to one location; memory processes them in
  // reverse — M2.3 violation (even with replies consistent with that
  // reversed order).
  FakeMachine m;
  m.modules.resize(2);
  const ReqId a{0, 0}, b{0, 1};
  m.ops.push_back({a, 4, FetchAdd(5), /*reply=*/7, 0, 10});   // ran second
  m.ops.push_back({b, 4, FetchAdd(7), /*reply=*/0, 0, 10});   // ran first
  m.modules[0].log.push_back({4, b});
  m.modules[0].log.push_back({4, a});
  m.finals = {{4, 12}};
  EXPECT_FALSE(verify::check_machine(m, 0).ok);
}

TEST(Checker, AcceptsKWayCombineChain) {
  // id0 absorbs id1 then id2 (chronological combine order).
  FakeMachine m;
  m.modules.resize(2);
  const ReqId id0{0, 0}, id1{1, 0}, id2{2, 0};
  m.ops.push_back({id0, 4, FetchAdd(1), 0, 0, 10});
  m.ops.push_back({id1, 4, FetchAdd(2), 1, 0, 10});
  m.ops.push_back({id2, 4, FetchAdd(4), 3, 0, 10});
  m.combines.push_back({id0, id1, 4});
  m.combines.push_back({id0, id2, 4});
  m.modules[0].log.push_back({4, id0});
  m.finals = {{4, 7}};
  EXPECT_TRUE(verify::check_machine(m, 0).ok);
}

TEST(Checker, AcceptsNestedCombineTree) {
  // (id0 ⊕ id1) ⊕ (id2 ⊕ id3): id2's subtree absorbed into id0's.
  FakeMachine m;
  m.modules.resize(2);
  const ReqId id0{0, 0}, id1{1, 0}, id2{2, 0}, id3{3, 0};
  m.ops.push_back({id0, 4, FetchAdd(1), 0, 0, 10});
  m.ops.push_back({id1, 4, FetchAdd(2), 1, 0, 10});
  m.ops.push_back({id2, 4, FetchAdd(4), 3, 0, 10});
  m.ops.push_back({id3, 4, FetchAdd(8), 7, 0, 10});
  m.combines.push_back({id0, id1, 4});
  m.combines.push_back({id2, id3, 4});
  m.combines.push_back({id0, id2, 4});
  m.modules[0].log.push_back({4, id0});
  m.finals = {{4, 15}};
  const auto res = verify::check_machine(m, 0);
  EXPECT_TRUE(res.ok) << res.error;
}

TEST(Checker, RejectsRepliesInWrongExpansionOrder) {
  // Same tree, but id2 and id3 swap replies: inconsistent with ANY serial
  // order respecting the combine structure.
  FakeMachine m;
  m.modules.resize(2);
  const ReqId id0{0, 0}, id1{1, 0}, id2{2, 0}, id3{3, 0};
  m.ops.push_back({id0, 4, FetchAdd(1), 0, 0, 10});
  m.ops.push_back({id1, 4, FetchAdd(2), 1, 0, 10});
  m.ops.push_back({id2, 4, FetchAdd(4), 7, 0, 10});
  m.ops.push_back({id3, 4, FetchAdd(8), 3, 0, 10});
  m.combines.push_back({id0, id1, 4});
  m.combines.push_back({id2, id3, 4});
  m.combines.push_back({id0, id2, 4});
  m.modules[0].log.push_back({4, id0});
  m.finals = {{4, 15}};
  EXPECT_FALSE(verify::check_machine(m, 0).ok);
}

}  // namespace
