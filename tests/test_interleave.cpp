// §3.2 and §5.1 litmus programs, explored exhaustively under the three
// memory models: the Collier example separating M1 from M2, the effect of
// RP3 fences, the readers–writers lock's per-slot handshake, and the
// incorrectness of early load satisfaction.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "verify/interleave.hpp"

namespace {

using namespace krs::verify;

// --- Collier's example (§3.2) ----------------------------------------------
//   P1: (1) a ← A; (2) b ← B        P2: (3) B ← 1; (4) A ← 1
LitmusProgram collier(bool with_fences) {
  LitmusProgram p;
  if (with_fences) {
    p.procs = {
        {ILoad{"A", "a"}, IFence{}, ILoad{"B", "b"}},
        {IStoreConst{"B", 1}, IFence{}, IStoreConst{"A", 1}},
    };
  } else {
    p.procs = {
        {ILoad{"A", "a"}, ILoad{"B", "b"}},
        {IStoreConst{"B", 1}, IStoreConst{"A", 1}},
    };
  }
  p.initial = {{"A", 0}, {"B", 0}};
  return p;
}

TEST(Collier, SequentialConsistencyOutcomes) {
  const auto out = explore(collier(false), MemModel::kSequentialConsistency);
  // The six legal orders give (a,b) ∈ {(0,0), (0,1), (1,1)}.
  EXPECT_TRUE(reachable(out, {{"P0.a", 0}, {"P0.b", 0}}));
  EXPECT_TRUE(reachable(out, {{"P0.a", 0}, {"P0.b", 1}}));
  EXPECT_TRUE(reachable(out, {{"P0.a", 1}, {"P0.b", 1}}));
  // a=1 ∧ b=0 would mean the store to A performed before the store to B yet
  // the loads saw the opposite — not sequentially consistent.
  EXPECT_FALSE(reachable(out, {{"P0.a", 1}, {"P0.b", 0}}));
}

TEST(Collier, PerLocationFifoAdmitsNonScOutcome) {
  // The paper: "If accesses occur in the order 4123, the loads will return
  // a value of 1 for A and a value of 0 for B, an outcome that is not
  // sequentially consistent. Thus condition (M2) is not sufficient."
  const auto out = explore(collier(false), MemModel::kPerLocationFifo);
  EXPECT_TRUE(reachable(out, {{"P0.a", 1}, {"P0.b", 0}}));
  // M2 is weaker than M1: every SC outcome is still reachable.
  for (const auto& o :
       explore(collier(false), MemModel::kSequentialConsistency)) {
    EXPECT_TRUE(out.count(o));
  }
}

TEST(Collier, FencesRestoreSequentialConsistency) {
  // "An incorrect execution can be prevented by adding a fence between the
  // two memory accesses in each of the serial streams."
  const auto fenced = explore(collier(true), MemModel::kPerLocationFifo);
  EXPECT_FALSE(reachable(fenced, {{"P0.a", 1}, {"P0.b", 0}}));
  EXPECT_TRUE(reachable(fenced, {{"P0.a", 0}, {"P0.b", 0}}));
  EXPECT_TRUE(reachable(fenced, {{"P0.a", 0}, {"P0.b", 1}}));
  EXPECT_TRUE(reachable(fenced, {{"P0.a", 1}, {"P0.b", 1}}));
}

// --- the readers–writers handshake on striped reader slots (§3.2) ----------
//   reader i (P0, P1): slot_i ← 1; r_i ← flag
//   writer (P2):       flag ← 1; w_0 ← slot_0; w_1 ← slot_1
// Each slot is a store→load handshake with the writer: exclusion fails if
// reader i sees the flag clear (r_i = 0) while the writer sees slot i
// empty (w_i = 0).
LitmusProgram rwlock_handshake(bool with_fences) {
  LitmusProgram p;
  for (const char* i : {"0", "1"}) {
    const std::string slot = std::string("slot") + i;
    std::vector<Instr> reader{IStoreConst{slot, 1}};
    if (with_fences) reader.push_back(IFence{});
    reader.push_back(ILoad{"flag", std::string("r") + i});
    p.procs.push_back(std::move(reader));
  }
  std::vector<Instr> writer{IStoreConst{"flag", 1}};
  if (with_fences) writer.push_back(IFence{});
  writer.push_back(ILoad{"slot0", "w0"});
  writer.push_back(ILoad{"slot1", "w1"});
  p.procs.push_back(std::move(writer));
  p.initial = {{"flag", 0}, {"slot0", 0}, {"slot1", 0}};
  return p;
}

/// Reader i inside (flag seen clear) while the writer saw its slot empty.
bool both_inside(const std::set<Outcome>& out, const char* i) {
  return reachable(out, {{std::string("P") + i + ".r" + i, 0},
                         {std::string("P2.w") + i, 0}});
}

TEST(RwLockHandshake, ExcludesUnderM1AndFencedM2) {
  for (const auto& [model, fenced] :
       {std::pair{MemModel::kSequentialConsistency, false},
        std::pair{MemModel::kSequentialConsistency, true},
        std::pair{MemModel::kPerLocationFifo, true}}) {
    SCOPED_TRACE(
        std::string(model == MemModel::kPerLocationFifo ? "M2" : "M1") +
        (fenced ? " fenced" : " unfenced"));
    const auto out = explore(rwlock_handshake(fenced), model);
    EXPECT_FALSE(both_inside(out, "0"));
    EXPECT_FALSE(both_inside(out, "1"));
    // Sanity: each side can still win the race.
    EXPECT_TRUE(reachable(out, {{"P0.r0", 0}, {"P1.r1", 0}}));
    EXPECT_TRUE(reachable(out, {{"P2.w0", 0}, {"P2.w1", 0}}));
  }
}

TEST(RwLockHandshake, UnfencedM2AdmitsReaderAndWriterInside) {
  // The control: under M2 a reader's flag load may perform before its
  // slot store, and the writer's slot loads before its flag store.
  const auto out =
      explore(rwlock_handshake(false), MemModel::kPerLocationFifo);
  EXPECT_TRUE(both_inside(out, "0"));
  EXPECT_TRUE(both_inside(out, "1"));
}

// --- the §5.1 early-load counterexample -------------------------------------
//   P1: (1) A ← 1
//   P2: (2) a ← A; (3) B ← a
//   P3: (4) b ← B + 1 (load B, add 1); (5) A ← b
LitmusProgram early_load_example() {
  LitmusProgram p;
  p.procs = {
      {IStoreConst{"A", 1}},
      {ILoad{"A", "a"}, IStoreLocal{"B", "a", 0}},
      {ILoad{"B", "b"}, IStoreLocal{"A", "b", 1}},
  };
  p.initial = {{"A", 0}, {"B", 0}};
  return p;
}

TEST(EarlyLoad, CorrectModelsForbidB2A1) {
  // "the execution of this code cannot end with b = 2 and A = 1"
  // (b is stored as local P2.b; final A is the shared value; note the
  // paper's b is the post-increment value, here P2.b + 1 stored to A, so
  // the paper's 'b = 2' is our P2.b = 1 with A = 1.)
  for (auto model :
       {MemModel::kSequentialConsistency, MemModel::kPerLocationFifo}) {
    const auto out = explore(early_load_example(), model);
    EXPECT_FALSE(reachable(out, {{"P2.b", 1}, {"A", 1}}));
    // Sanity: the normal serial outcome 12345 exists: a=1, B=1, b=1, A=2.
    EXPECT_TRUE(reachable(out, {{"P1.a", 1}, {"B", 1}, {"P2.b", 1}, {"A", 2}}));
  }
}

TEST(EarlyLoad, OptimizationAdmitsForbiddenOutcome) {
  // With loads satisfied from in-flight stores, the order 23451 becomes
  // observable with the load in (2) returning the value stored by (1):
  // ends with P2.b = 1 (paper's b = 2) and A = 1. "However this
  // optimization is incorrect."
  const auto out =
      explore(early_load_example(), MemModel::kPerLocationFifoEarlyLoad);
  EXPECT_TRUE(reachable(out, {{"P2.b", 1}, {"A", 1}}));
}

TEST(EarlyLoad, OptimizedModelIsStrictlyWeaker) {
  // Every M2 outcome remains reachable under the optimized model (the bug
  // only ADDS behaviors).
  const auto m2 = explore(early_load_example(), MemModel::kPerLocationFifo);
  const auto opt =
      explore(early_load_example(), MemModel::kPerLocationFifoEarlyLoad);
  for (const auto& o : m2) EXPECT_TRUE(opt.count(o));
  EXPECT_GT(opt.size(), m2.size());
}

// --- basic explorer sanity ---------------------------------------------------

TEST(Explorer, SingleProcessorIsSerial) {
  LitmusProgram p;
  p.procs = {{IStoreConst{"X", 1}, ILoad{"X", "r"}, IStoreConst{"X", 2}}};
  p.initial = {{"X", 0}};
  for (auto model : {MemModel::kSequentialConsistency,
                     MemModel::kPerLocationFifo,
                     MemModel::kPerLocationFifoEarlyLoad}) {
    const auto out = explore(p, model);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(reachable(out, {{"P0.r", 1}, {"X", 2}}));
  }
}

TEST(Explorer, IndependentLocationsCommute) {
  LitmusProgram p;
  p.procs = {{IStoreConst{"X", 1}}, {IStoreConst{"Y", 1}}};
  p.initial = {{"X", 0}, {"Y", 0}};
  const auto out = explore(p, MemModel::kSequentialConsistency);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(reachable(out, {{"X", 1}, {"Y", 1}}));
}

TEST(Explorer, RacyStoresProduceBothFinals) {
  LitmusProgram p;
  p.procs = {{IStoreConst{"X", 1}}, {IStoreConst{"X", 2}}};
  p.initial = {{"X", 0}};
  const auto out = explore(p, MemModel::kSequentialConsistency);
  EXPECT_TRUE(reachable(out, {{"X", 1}}));
  EXPECT_TRUE(reachable(out, {{"X", 2}}));
  EXPECT_EQ(out.size(), 2u);
}

}  // namespace
