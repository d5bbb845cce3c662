// Negative-path tests for the Theorem 4.2 checker driven by REAL machine
// runs: record an actual simulation's history, snapshot its logs into a
// corruptible adapter, verify the snapshot passes, then corrupt it one
// surgical mutation at a time and assert the checker names the SPECIFIC
// criterion (M2.1 / M2.2 / M2.3) that the mutation breaks. This pins down
// not just that the checker fails, but that it fails for the right reason
// on histories with the full combine structure a real run produces.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/fetch_theta.hpp"
#include "sim/machine.hpp"
#include "verify/memory_checker.hpp"
#include "workload/workloads.hpp"

namespace {

using namespace krs;
using core::FetchAdd;
using core::Word;
using sim::Machine;
using sim::MachineConfig;

/// A mutable copy of a finished run's observable history, exposing the
/// interface check_machine needs.
struct RecModule {
  std::vector<mem::AccessRecord> log;
  const std::vector<mem::AccessRecord>& access_log() const { return log; }
};

struct RecordedRun {
  using rmw_type = FetchAdd;

  std::vector<proc::CompletedOp<FetchAdd>> ops;
  std::vector<net::CombineEvent> combines;
  std::vector<RecModule> modules;
  std::map<core::Addr, Word> finals;

  const std::vector<proc::CompletedOp<FetchAdd>>& completed() const {
    return ops;
  }
  const std::vector<net::CombineEvent>& combine_log() const {
    return combines;
  }
  std::uint32_t module_count() const {
    return static_cast<std::uint32_t>(modules.size());
  }
  const RecModule& module(std::uint32_t i) const { return modules[i]; }
  Word value_at(core::Addr a) const {
    const auto it = finals.find(a);
    return it == finals.end() ? 0 : it->second;
  }
};

RecordedRun snapshot(const Machine<FetchAdd>& m,
                     std::initializer_list<core::Addr> addrs) {
  RecordedRun r;
  r.ops = m.completed();
  r.combines = m.combine_log();
  r.modules.resize(m.module_count());
  for (std::uint32_t i = 0; i < m.module_count(); ++i) {
    r.modules[i].log = m.module(i).access_log();
  }
  for (const core::Addr a : addrs) r.finals[a] = m.value_at(a);
  return r;
}

/// All 8 processors fire one fetch-and-add at one cell in the same cycle:
/// the requests combine pairwise at every stage (7 combine events), so the
/// recorded history has the nested expansion structure Lemma 4.1 describes.
RecordedRun recorded_burst() {
  MachineConfig<FetchAdd> cfg;
  cfg.log2_procs = 3;
  cfg.window = 1;
  std::vector<std::unique_ptr<proc::TrafficSource<FetchAdd>>> src;
  for (std::uint32_t p = 0; p < 8; ++p) {
    std::deque<workload::ScriptedSource<FetchAdd>::Item> items;
    items.push_back({0, 7, FetchAdd(1)});
    src.push_back(
        std::make_unique<workload::ScriptedSource<FetchAdd>>(std::move(items)));
  }
  Machine<FetchAdd> m(cfg, std::move(src));
  KRS_ASSERT(m.run(10000));
  KRS_ASSERT(m.combine_log().size() == 7);
  return snapshot(m, {7});
}

TEST(CheckerNegative, SnapshotOfRealRunPasses) {
  const RecordedRun r = recorded_burst();
  const auto res = verify::check_machine(r, 0);
  EXPECT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.operations_checked, 8u);
  EXPECT_GT(res.combined_messages_expanded, 0u);
}

TEST(CheckerNegative, DuplicatedCombineLogEntryIsM21) {
  // The same absorption recorded twice: the absorbed request would be
  // represented twice in the expansion — the serial stream replays it
  // twice, which is exactly what M2.1 (serializability) forbids.
  RecordedRun r = recorded_burst();
  r.combines.push_back(r.combines.front());
  const auto res = verify::check_machine(r, 0);
  ASSERT_FALSE(res.ok);
  EXPECT_NE(res.error.find("M2.1"), std::string::npos) << res.error;
}

TEST(CheckerNegative, DroppedCombineEventIsM22) {
  // Erase one absorption from the log: the absorbed request still claims
  // completion but is no longer represented by anything memory processed —
  // M2.2 (every request eventually accepted) is violated.
  RecordedRun r = recorded_burst();
  r.combines.pop_back();
  const auto res = verify::check_machine(r, 0);
  ASSERT_FALSE(res.ok);
  EXPECT_NE(res.error.find("M2.2"), std::string::npos) << res.error;
}

TEST(CheckerNegative, DroppedCompletedOpIsCaught) {
  // Drop a completed op entirely: memory now processed more requests than
  // ever completed. (The checker reports the count mismatch rather than an
  // M-number — there is no single criterion for an op the record has
  // forgotten existed.)
  RecordedRun r = recorded_burst();
  r.ops.pop_back();
  const auto res = verify::check_machine(r, 0);
  ASSERT_FALSE(res.ok);
  EXPECT_NE(res.error.find("completed"), std::string::npos) << res.error;
}

TEST(CheckerNegative, ReorderedSameProcessorPairIsM23) {
  // One processor issues two fetch-and-adds to one location, strictly in
  // sequence (window = 1, so they cannot combine with each other). Swap
  // the two records in the module's access log: the replies and final
  // value still replay consistently (both add 0), but the same-processor
  // same-location FIFO order of M2.3 is broken — the checker must catch
  // the reordering even though the values are unimpeachable.
  MachineConfig<FetchAdd> cfg;
  cfg.log2_procs = 2;
  cfg.window = 1;
  std::vector<std::unique_ptr<proc::TrafficSource<FetchAdd>>> src;
  for (std::uint32_t p = 0; p < 4; ++p) {
    std::deque<workload::ScriptedSource<FetchAdd>::Item> items;
    if (p == 0) {
      items.push_back({0, 9, FetchAdd(0)});
      items.push_back({0, 9, FetchAdd(0)});
    }
    src.push_back(
        std::make_unique<workload::ScriptedSource<FetchAdd>>(std::move(items)));
  }
  Machine<FetchAdd> m(cfg, std::move(src));
  ASSERT_TRUE(m.run(10000));
  RecordedRun r = snapshot(m, {9});
  ASSERT_TRUE(verify::check_machine(r, 0).ok);

  // Find the module that serviced both requests and swap them.
  bool swapped = false;
  for (auto& mod : r.modules) {
    if (mod.log.size() == 2) {
      std::swap(mod.log[0], mod.log[1]);
      swapped = true;
    }
  }
  ASSERT_TRUE(swapped);
  const auto res = verify::check_machine(r, 0);
  ASSERT_FALSE(res.ok);
  EXPECT_NE(res.error.find("M2.3"), std::string::npos) << res.error;
}

TEST(CheckerNegative, TamperedFinalValueIsCaught) {
  RecordedRun r = recorded_burst();
  r.finals[7] = 99;  // the eight adds really sum to 8
  const auto res = verify::check_machine(r, 0);
  ASSERT_FALSE(res.ok);
  EXPECT_NE(res.error.find("final memory value"), std::string::npos)
      << res.error;
}

}  // namespace
