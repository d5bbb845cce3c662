// The path-expression compiler (core/path_expr.hpp): expressions →
// minimal cyclic DFAs → §5.6 guarded operations. Pins the grammar, the
// minimization (the scenario automata come out at exactly their
// hand-counted state counts), determinism, the ≤16-state tractability
// cap, the error paths, and the equivalence of compiled operations with
// the hand-built DlsOp tables the example and older tests use.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/dls.hpp"
#include "core/path_expr.hpp"
#include "workload/path_scenarios.hpp"

namespace {

using namespace krs::core;

PathAutomaton must_compile(std::string_view src) {
  PathCompiler pc;
  auto a = pc.compile(src);
  EXPECT_TRUE(a.has_value()) << pc.error();
  return a.value_or(PathAutomaton{});
}

// --- minimization: the scenario automata at their hand-counted sizes ---------

TEST(PathExpr, FileSessionMinimizesToTwoStates) {
  const auto a = must_compile("open (read | append)* close");
  EXPECT_EQ(a.states(), 2u);
  // State 0 (closed) admits only open; state 1 (open) everything else.
  EXPECT_EQ(a.guard_of("open"), 0b01);
  EXPECT_EQ(a.guard_of("read"), 0b10);
  EXPECT_EQ(a.guard_of("append"), 0b10);
  EXPECT_EQ(a.guard_of("close"), 0b10);
  EXPECT_EQ(a.next_of("open", 0), 1u);
  EXPECT_EQ(a.next_of("read", 1), 1u);
  EXPECT_EQ(a.next_of("close", 1), 0u);
}

TEST(PathExpr, ProducerConsumerMinimizesToOccupancyCounter) {
  // `put (put get)* get` cyclic ≡ a depth-2 occupancy counter.
  const auto a = must_compile("put (put get)* get");
  EXPECT_EQ(a.states(), 3u);
  EXPECT_EQ(a.guard_of("put"), 0b011);  // admitted at occupancy 0 and 1
  EXPECT_EQ(a.guard_of("get"), 0b110);  // admitted at occupancy 1 and 2
  EXPECT_EQ(a.next_of("put", 0), 1u);
  EXPECT_EQ(a.next_of("put", 1), 2u);
  EXPECT_EQ(a.next_of("get", 2), 1u);
  EXPECT_EQ(a.next_of("get", 1), 0u);
}

TEST(PathExpr, ReadersWritersMinimizesToFourStates) {
  const auto a = must_compile(
      "w_open w_append* w_close | r_open (r_open r_close)* r_close");
  EXPECT_EQ(a.states(), 4u);
  // From idle both opens are admitted and exclude each other's family.
  EXPECT_TRUE(a.admits("w_open", 0));
  EXPECT_TRUE(a.admits("r_open", 0));
  const unsigned w = a.next_of("w_open", 0);
  const unsigned r1 = a.next_of("r_open", 0);
  EXPECT_NE(w, r1);
  // Writer holds exclusively: no reader op admitted, w_append loops.
  EXPECT_FALSE(a.admits("r_open", w));
  EXPECT_FALSE(a.admits("r_close", w));
  EXPECT_EQ(a.next_of("w_append", w), w);
  EXPECT_EQ(a.next_of("w_close", w), 0u);
  // One reader: a second may join, writers are excluded.
  EXPECT_FALSE(a.admits("w_open", r1));
  const unsigned r2 = a.next_of("r_open", r1);
  EXPECT_NE(r2, r1);
  // Two readers: only closes, unwinding through r1 back to idle.
  EXPECT_FALSE(a.admits("r_open", r2));
  EXPECT_FALSE(a.admits("w_open", r2));
  EXPECT_EQ(a.next_of("r_close", r2), r1);
  EXPECT_EQ(a.next_of("r_close", r1), 0u);
}

TEST(PathExpr, CyclicIdenticalStepsCollapse) {
  // With acceptance erased by the cyclic wrap, `a a a` is just an a-loop.
  const auto a = must_compile("a a a");
  EXPECT_EQ(a.states(), 1u);
  EXPECT_EQ(a.guard_of("a"), 0b1);
  EXPECT_EQ(a.next_of("a", 0), 0u);
}

TEST(PathExpr, PlusRequiresOneIteration) {
  // `a b+`: after a, at least one b before the path restarts.
  const auto a = must_compile("a b+");
  EXPECT_EQ(a.states(), 3u);
  EXPECT_TRUE(a.accepts_trace({"a", "b", "a"}));
  EXPECT_TRUE(a.accepts_trace({"a", "b", "b", "b", "a"}));
  EXPECT_FALSE(a.accepts_trace({"a", "a"}));  // zero bs: not admitted
  EXPECT_FALSE(a.accepts_trace({"b"}));
}

// --- traces ------------------------------------------------------------------

TEST(PathExpr, TraceAcceptance) {
  const auto a = must_compile("open (read | append)* close");
  EXPECT_TRUE(a.accepts_trace({}));
  EXPECT_TRUE(a.accepts_trace({"open", "read", "append", "close", "open"}));
  EXPECT_FALSE(a.accepts_trace({"read"}));           // closed
  EXPECT_FALSE(a.accepts_trace({"open", "open"}));   // already open
  EXPECT_FALSE(a.accepts_trace({"open", "fsync"}));  // unknown op
}

// --- compiled ops ≡ hand-built tables ----------------------------------------

TEST(PathExpr, CompiledOpsMatchHandBuiltTables) {
  const auto a = must_compile("open (read | append)* close");
  using Op = DlsOp<2>;
  EXPECT_EQ(a.typed_load_op<2>("open"), Op::guarded_load(0b01, {1, 0}));
  EXPECT_EQ(a.typed_load_op<2>("read"), Op::guarded_load(0b10, {0, 1}));
  EXPECT_EQ(a.typed_store_op<2>("append", 7),
            Op::guarded_store(7, 0b10, {0, 1}));
  EXPECT_EQ(a.typed_load_op<2>("close"), Op::guarded_load(0b10, {0, 0}));
  // The word-level twins mirror the typed ops on packed cells.
  const DlsWordOp wopen = a.load_op("open");
  for (unsigned s = 0; s < 2; ++s) {
    const DlsCell c{42, static_cast<std::uint8_t>(s)};
    EXPECT_EQ(wopen.apply(dls_pack(c)),
              dls_pack(a.typed_load_op<2>("open").apply(c)));
    EXPECT_EQ(wopen.succeeded(dls_pack(c)),
              a.typed_load_op<2>("open").succeeded(c));
  }
}

TEST(PathExpr, CompilationIsDeterministic) {
  const char* expr = "w_open w_append* w_close | r_open (r_open r_close)* r_close";
  const auto a = must_compile(expr), b = must_compile(expr);
  ASSERT_EQ(a.states(), b.states());
  ASSERT_EQ(a.alphabet(), b.alphabet());
  for (const auto& op : a.alphabet()) {
    EXPECT_EQ(a.guard_of(op), b.guard_of(op));
    for (unsigned s = 0; s < a.states(); ++s) {
      if (a.admits(op, s)) {
        EXPECT_EQ(a.next_of(op, s), b.next_of(op, s));
      }
    }
  }
}

// --- error paths -------------------------------------------------------------

TEST(PathExpr, RejectsMalformedExpressions) {
  PathCompiler pc;
  EXPECT_FALSE(pc.compile("").has_value());
  EXPECT_FALSE(pc.error().empty());
  EXPECT_FALSE(pc.compile("open (read").has_value());   // missing )
  EXPECT_FALSE(pc.compile("open | ").has_value());      // empty branch
  EXPECT_FALSE(pc.compile("* open").has_value());       // dangling star
  EXPECT_FALSE(pc.compile("open ) close").has_value()); // stray )
}

TEST(PathExpr, EnforcesTheTractabilityCap) {
  // 20 DISTINCT steps cannot minimize below 20 states — past the §5.6
  // cap of 16, the compiler refuses rather than truncating.
  std::string expr;
  for (int i = 0; i < 20; ++i) {
    expr += 's';
    expr += std::to_string(i);
    expr += ' ';
  }
  PathCompiler pc;
  EXPECT_FALSE(pc.compile(expr).has_value());
  EXPECT_NE(pc.error().find("16"), std::string::npos) << pc.error();
  // 12 distinct steps fit.
  std::string ok;
  for (int i = 0; i < 12; ++i) {
    ok += 's';
    ok += std::to_string(i);
    ok += ' ';
  }
  EXPECT_TRUE(pc.compile(ok).has_value()) << pc.error();
}

// --- the scenario layer --------------------------------------------------------

TEST(PathExpr, ScenarioLayerExposesTheProtocols) {
  const krs::workload::ProducerConsumerPath pc;
  EXPECT_EQ(pc.states(), 3u);
  Word w = dls_pack({0, 0});
  EXPECT_TRUE(pc.put(5).succeeded(w));
  w = pc.put(5).apply(w);
  w = pc.put(6).apply(w);
  EXPECT_FALSE(pc.put(7).succeeded(w));  // full at occupancy 2
  const Word prior = w;
  EXPECT_TRUE(pc.get().succeeded(w));
  w = pc.get().apply(w);
  EXPECT_EQ(dls_unpack(prior).value, 6u);
  EXPECT_EQ(krs::workload::ProducerConsumerPath::occupancy(dls_unpack(w)), 1u);

  const krs::workload::ReadersWritersPath rw;
  EXPECT_EQ(rw.states(), 4u);
  EXPECT_EQ(rw.occupancy(0), 0u);
  Word c = dls_pack({0, 0});
  c = rw.reader_open().apply(c);
  EXPECT_EQ(rw.occupancy(dls_unpack(c).state), 1u);
  EXPECT_FALSE(rw.writer_open().succeeded(c));
  c = rw.reader_open().apply(c);
  EXPECT_EQ(rw.occupancy(dls_unpack(c).state), 2u);
  const unsigned wstate =
      dls_unpack(rw.writer_open().apply(dls_pack({0, 0}))).state;
  EXPECT_EQ(rw.occupancy(wstate), 1u);
}

}  // namespace
