// §5.6 — data-level synchronization: guarded operations over a tagged-cell
// automaton, closure of per-state tables under composition, the |S| bound on
// distinct store values, the isomorphism with the full/empty family, the
// composed success predicate, the wire-budget decline (try_compose →
// nullopt past the §5.6 size budget), the word-packed runtime family
// (DlsWordOp through AnyRmw), and multi-thread guarded-op conservation
// over the atomic / combining / flat / sharded substrates.
#include <gtest/gtest.h>

#include <array>
#include <set>
#include <thread>
#include <vector>

#include "core/any_rmw.hpp"
#include "core/dls.hpp"
#include "core/full_empty.hpp"
#include "runtime/combining_backend.hpp"
#include "runtime/dls_service.hpp"
#include "runtime/flat_combining.hpp"
#include "runtime/rmw_backend.hpp"
#include "runtime/sharded_backend.hpp"
#include "util/rng.hpp"
#include "workload/path_scenarios.hpp"

namespace {

using namespace krs::core;

using Op2 = DlsOp<2>;
using Op4 = DlsOp<4>;

TEST(Dls, IdentitySemantics) {
  const Op4 id = Op4::identity();
  for (unsigned s = 0; s < 4; ++s) {
    const DlsCell c{99, static_cast<std::uint8_t>(s)};
    EXPECT_EQ(id.apply(c), c);
  }
}

TEST(Dls, GuardedStoreAppliesOnlyInGuard) {
  // Store 7 allowed only in state 0, moving to state 1.
  const Op2 put = Op2::guarded_store(7, 0b01, {1, 0});
  EXPECT_EQ(put.apply({0, 0}), (DlsCell{7, 1}));
  EXPECT_EQ(put.apply({5, 1}), (DlsCell{5, 1}));  // fails: unchanged
  EXPECT_TRUE(put.succeeded({0, 0}));
  EXPECT_FALSE(put.succeeded({5, 1}));
}

TEST(Dls, GuardedLoadMovesState) {
  const Op2 get = Op2::guarded_load(0b10, {0, 0});
  EXPECT_EQ(get.apply({7, 1}), (DlsCell{7, 0}));
  EXPECT_EQ(get.apply({7, 0}), (DlsCell{7, 0}));  // fails: unchanged
  EXPECT_TRUE(get.succeeded({7, 1}));
  EXPECT_FALSE(get.succeeded({7, 0}));
}

Op4 random_op(krs::util::Xoshiro256& rng) {
  const auto guard = static_cast<std::uint16_t>(rng.below(16));
  std::array<std::uint8_t, 4> next{};
  for (auto& n : next) n = static_cast<std::uint8_t>(rng.below(4));
  if (rng.chance(0.5)) return Op4::guarded_store(rng.below(100), guard, next);
  return Op4::guarded_load(guard, next);
}

TEST(Dls, ComposeMatchesSequentialApplication) {
  krs::util::Xoshiro256 rng(71);
  for (int i = 0; i < 2000; ++i) {
    const Op4 f = random_op(rng), g = random_op(rng);
    const DlsCell c{rng.below(100), static_cast<std::uint8_t>(rng.below(4))};
    EXPECT_EQ(compose(f, g).apply(c), g.apply(f.apply(c)));
  }
}

TEST(Dls, Associativity) {
  krs::util::Xoshiro256 rng(73);
  for (int i = 0; i < 1000; ++i) {
    const Op4 a = random_op(rng), b = random_op(rng), c = random_op(rng);
    EXPECT_EQ(compose(compose(a, b), c), compose(a, compose(b, c)));
  }
}

TEST(Dls, IdentityLaws) {
  krs::util::Xoshiro256 rng(79);
  for (int i = 0; i < 200; ++i) {
    const Op4 f = random_op(rng);
    EXPECT_EQ(compose(Op4::identity(), f), f);
    EXPECT_EQ(compose(f, Op4::identity()), f);
  }
}

// §5.6's bound: a combined operation never carries more than |S| distinct
// store values, and the bound is attained by the store-if-state=s family.
TEST(Dls, StoreValueBoundHolds) {
  krs::util::Xoshiro256 rng(83);
  for (int trial = 0; trial < 500; ++trial) {
    Op4 combined = Op4::identity();
    const int n = 1 + static_cast<int>(rng.below(10));
    for (int i = 0; i < n; ++i) combined = compose(combined, random_op(rng));
    EXPECT_LE(combined.distinct_store_values(), 4u);
  }
}

TEST(Dls, StoreValueBoundAttained) {
  // store-if-state=s of a distinct value, for each s, composed together:
  // the combined table stores a different value per state.
  Op4 combined = Op4::identity();
  for (unsigned s = 0; s < 4; ++s) {
    combined = compose(
        combined, Op4::guarded_store(100 + s, static_cast<std::uint16_t>(1u << s),
                                     {0, 1, 2, 3}));
  }
  EXPECT_EQ(combined.distinct_store_values(), 4u);
  for (unsigned s = 0; s < 4; ++s) {
    EXPECT_EQ(combined.apply({0, static_cast<std::uint8_t>(s)}).value,
              100 + s);
  }
}

// The full/empty family is the 2-state special case: map each FEOp to a
// DlsOp<2> (state 0 = empty, 1 = full) and check the embedding is a
// semigroup homomorphism.
Op2 embed(const FEOp& f) {
  // Build the per-state table directly from FEOp::apply on both branches.
  const FEWord e0 = f.apply({0xABCD, false});
  const FEWord e1 = f.apply({0xABCD, true});
  Op2 out = Op2::identity();
  // Reconstruct via guarded ops is awkward; instead compose from primitive
  // guarded forms equivalent to the branch behavior.
  const bool store0 = e0.value != 0xABCD;
  const bool store1 = e1.value != 0xABCD;
  // Use two single-state guarded ops: one for state 0, one for state 1.
  const Op2 on0 = store0
                      ? Op2::guarded_store(e0.value, 0b01,
                                           {static_cast<std::uint8_t>(e0.full),
                                            0})
                      : Op2::guarded_load(0b01,
                                          {static_cast<std::uint8_t>(e0.full),
                                           0});
  const Op2 on1 = store1
                      ? Op2::guarded_store(e1.value, 0b10,
                                           {0,
                                            static_cast<std::uint8_t>(e1.full)})
                      : Op2::guarded_load(0b10,
                                          {0,
                                           static_cast<std::uint8_t>(e1.full)});
  out = compose(on0, on1);
  return out;
}

DlsCell to_cell(const FEWord& w) {
  return DlsCell{w.value, static_cast<std::uint8_t>(w.full ? 1 : 0)};
}

TEST(Dls, FullEmptyEmbedding) {
  const std::vector<FEOp> ops = {FEOp::load(),
                                 FEOp::load_and_clear(),
                                 FEOp::store_and_set(3),
                                 FEOp::store_if_clear_and_set(5),
                                 FEOp::store_and_clear(7),
                                 FEOp::store_if_clear_and_clear(9)};
  const std::vector<FEWord> cells = {{1, false}, {1, true}, {9, false}};
  for (const auto& f : ops) {
    const Op2 df = embed(f);
    for (const auto& c : cells) {
      EXPECT_EQ(df.apply(to_cell(c)), to_cell(f.apply(c))) << f.to_string();
    }
    // Homomorphism: embed(f∘g) behaves like embed(f)∘embed(g).
    for (const auto& g : ops) {
      const Op2 lhs = embed(compose(f, g));
      const Op2 rhs = compose(embed(f), embed(g));
      for (const auto& c : cells) {
        EXPECT_EQ(lhs.apply(to_cell(c)), rhs.apply(to_cell(c)));
      }
    }
  }
}

// A 3-state path expression: open → (read)* → close, i.e. the regular
// protocol open (read)* close on a shared object (§5.6's path-expression
// application). State 0 = closed, 1 = open.
TEST(Dls, PathExpressionProtocol) {
  using Op = DlsOp<2>;
  const Op open = Op::guarded_load(0b01, {1, 0});   // allowed when closed
  const Op read = Op::guarded_load(0b10, {0, 1});   // allowed when open
  const Op close = Op::guarded_load(0b10, {0, 0});  // allowed when open
  DlsCell obj{0, 0};
  // Legal sequence: open read read close.
  for (const auto* op : {&open, &read, &read, &close}) {
    EXPECT_TRUE(op->succeeded(obj));
    obj = op->apply(obj);
  }
  EXPECT_EQ(obj.state, 0);
  // Illegal: read while closed fails and leaves the object unchanged.
  EXPECT_FALSE(read.succeeded(obj));
  EXPECT_EQ(read.apply(obj), obj);
  // Combining a full legal session into one request leaves state 0 and
  // succeeds from closed.
  Op session = Op::identity();
  for (const auto* op : {&open, &read, &close}) session = compose(session, *op);
  EXPECT_EQ(session.apply({5, 0}), (DlsCell{5, 0}));
}

TEST(Dls, ChainEqualsSerial) {
  krs::util::Xoshiro256 rng(89);
  for (int trial = 0; trial < 300; ++trial) {
    const int n = 1 + static_cast<int>(rng.below(12));
    Op4 combined = Op4::identity();
    DlsCell cell{rng.below(100), static_cast<std::uint8_t>(rng.below(4))};
    const DlsCell c0 = cell;
    for (int i = 0; i < n; ++i) {
      const Op4 f = random_op(rng);
      combined = compose(combined, f);
      cell = f.apply(cell);
    }
    EXPECT_EQ(combined.apply(c0), cell);
  }
}

// --- the composed success predicate ------------------------------------------

// Pin of the guard-composition fix: a LEGAL composed session must report
// succeeded() == true (compose used to zero the guard, so every combined
// request read as a NACK regardless of outcome).
TEST(Dls, ComposedSessionGuardReportsSuccess) {
  using Op = DlsOp<2>;
  const Op open = Op::guarded_load(0b01, {1, 0});
  const Op read = Op::guarded_load(0b10, {0, 1});
  const Op close = Op::guarded_load(0b10, {0, 0});
  const Op session = compose(compose(open, read), close);
  EXPECT_TRUE(session.succeeded({5, 0}));   // from closed: every step legal
  EXPECT_FALSE(session.succeeded({5, 1}));  // from open: the open nacks
  // The identity is unguarded, so folding it in changes no predicate.
  EXPECT_EQ(compose(Op::identity(), session).guard(), session.guard());
  EXPECT_EQ(compose(session, Op::identity()).guard(), session.guard());
}

// compose()'s guard must equal the chained predicate at every state:
// the chain succeeds from c iff f admits c AND g admits f's successor.
TEST(Dls, ComposedGuardMatchesChainedPredicate) {
  krs::util::Xoshiro256 rng(97);
  for (int i = 0; i < 2000; ++i) {
    const Op4 f = random_op(rng), g = random_op(rng);
    const Op4 fg = compose(f, g);
    for (unsigned s = 0; s < 4; ++s) {
      const DlsCell c{rng.below(100), static_cast<std::uint8_t>(s)};
      EXPECT_EQ(fg.succeeded(c), f.succeeded(c) && g.succeeded(f.apply(c)));
    }
  }
}

// --- the §5.6 size bound and the try_compose decline -------------------------

// The documented wire format, spelled out: per state one store-flag bit
// plus next-state and store-slot indices (⌈lg |S|⌉ bits each) plus one
// guard bit, rounded up to bytes, plus one word per distinct store value.
TEST(Dls, EncodedSizeMatchesDocumentedFormula) {
  // |S| = 4: 4·(1 + 2·2) + 4 = 24 bits → 3 bytes of table.
  EXPECT_EQ(Op4::identity().encoded_size_bytes(), 3u);
  EXPECT_EQ(Op4::guarded_store(7, 0b1111, {0, 1, 2, 3}).encoded_size_bytes(),
            3u + sizeof(Word));
  // |S| = 2: 2·(1 + 2·1) + 2 = 8 bits → 1 byte of table.
  EXPECT_EQ(Op2::identity().encoded_size_bytes(), 1u);
  EXPECT_EQ(Op2::guarded_store(7, 0b01, {1, 0}).encoded_size_bytes(),
            1u + sizeof(Word));
  // The §5.6 bound: a table can carry at most |S| distinct store values.
  EXPECT_EQ(Op4::kSizeBound, 3u + 4 * sizeof(Word));
  EXPECT_EQ(Op2::kSizeBound, 1u + 2 * sizeof(Word));
}

// §5.6's closure: at the DEFAULT budget (the |S| bound) composition is
// total — the composed table has one row per state, so it can never carry
// more than |S| distinct values, and try_compose never declines.
TEST(Dls, TryComposeTotalAtDefaultBudget) {
  krs::util::Xoshiro256 rng(101);
  for (int trial = 0; trial < 500; ++trial) {
    Op4 acc = Op4::identity();
    const int n = 1 + static_cast<int>(rng.below(8));
    for (int i = 0; i < n; ++i) {
      const auto r = try_compose(acc, random_op(rng));
      ASSERT_TRUE(r.has_value());
      acc = *r;
      EXPECT_LE(acc.encoded_size_bytes(), Op4::kSizeBound);
    }
  }
}

// A switch whose wire format is NARROWER than the bound declines the
// fold once the composed table would overflow it — the negative half of
// the §7 partial-combining contract (the declined second is then served
// individually at the root; test_backends.cpp drives that end).
TEST(Dls, TryComposeDeclinesPastNarrowedBudget) {
  // Stores on DISJOINT chased paths, so the composed table really carries
  // two distinct values: a stores from state 0 (landing where b keeps),
  // b stores from state 2 (where a keeps).
  const Op4 a = Op4::guarded_store(11, 0b0001, {1, 0, 0, 0});
  const Op4 b = Op4::guarded_store(22, 0b0100, {0, 0, 3, 0});
  ASSERT_EQ(compose(a, b).distinct_store_values(), 2u);
  const std::size_t one_value = a.encoded_size_bytes();
  // Composing two distinct-value stores needs two value slots: decline.
  EXPECT_FALSE(try_compose(a.with_size_budget(one_value),
                           b.with_size_budget(one_value))
                   .has_value());
  // The SAME pair at the default budget combines (and matches compose).
  const auto full = try_compose(a, b);
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(*full, compose(a, b));
  // The budget is the MEET of the operands: one narrow side declines.
  EXPECT_FALSE(try_compose(a, b.with_size_budget(one_value)).has_value());
  // Same-value stores still fit one slot even at the narrow budget.
  const Op4 b_same = Op4::guarded_store(11, 0b0100, {0, 0, 3, 0});
  EXPECT_TRUE(try_compose(a.with_size_budget(one_value),
                          b_same.with_size_budget(one_value))
                  .has_value());
}

// --- the word-packed runtime family ------------------------------------------

TEST(DlsWord, PackUnpackRoundTrip) {
  krs::util::Xoshiro256 rng(103);
  for (int i = 0; i < 1000; ++i) {
    const DlsCell c{rng.below(kDlsValueLimit),
                    static_cast<std::uint8_t>(rng.below(16))};
    EXPECT_EQ(dls_unpack(dls_pack(c)), c);
  }
}

// DlsWordOp::from(f) must mirror f on packed words: same transitions,
// same success predicate, same encoded size, and the same composition
// wherever compose(f, g) carries at most one store value. The wire form
// holds one value, so where the typed composition carries two,
// try_compose(wf, wg) declines instead (§7 serves the second at the root).
TEST(DlsWord, WordOpMirrorsTypedOp) {
  krs::util::Xoshiro256 rng(107);
  unsigned folds = 0, declines = 0;
  for (int i = 0; i < 1000; ++i) {
    const Op4 f = random_op(rng), g = random_op(rng);
    const DlsWordOp wf = DlsWordOp::from(f), wg = DlsWordOp::from(g);
    for (unsigned s = 0; s < 4; ++s) {
      const DlsCell c{rng.below(100), static_cast<std::uint8_t>(s)};
      EXPECT_EQ(wf.apply(dls_pack(c)), dls_pack(f.apply(c)));
      EXPECT_EQ(wf.succeeded(dls_pack(c)), f.succeeded(c));
    }
    EXPECT_EQ(wf.encoded_size_bytes(), f.encoded_size_bytes());
    const Op4 fg = compose(f, g);
    const auto wfg = try_compose(wf, wg);
    if (fg.distinct_store_values() <= 1) {
      ++folds;
      ASSERT_TRUE(wfg.has_value());
      EXPECT_EQ(*wfg, DlsWordOp::from(fg));
      EXPECT_EQ(compose(wf, wg), *wfg);
      EXPECT_EQ(wfg->guard(), fg.guard());
      EXPECT_EQ(wfg->encoded_size_bytes(), fg.encoded_size_bytes());
    } else {
      ++declines;
      EXPECT_FALSE(wfg.has_value());
    }
  }
  EXPECT_GT(folds, 0u);
  EXPECT_GT(declines, 0u);
}

TEST(DlsWord, UniversalIdentityAbsorbs) {
  const DlsWordOp id = DlsWordOp::identity();
  EXPECT_TRUE(id.is_identity());
  EXPECT_EQ(id.apply(12345), 12345u);
  EXPECT_TRUE(id.succeeded(0xFFu));
  const DlsWordOp f = DlsWordOp::guarded_store(3, 7, 0b001, {1, 0, 2});
  EXPECT_EQ(compose(id, f), f);
  EXPECT_EQ(compose(f, id), f);
  ASSERT_TRUE(try_compose(id, f).has_value());
  EXPECT_EQ(*try_compose(id, f), f);
}

TEST(DlsWord, DeclinesAcrossDistinctAutomataAndBudgets) {
  const DlsWordOp two = DlsWordOp::guarded_load(2, 0b01, {1, 0});
  const DlsWordOp three = DlsWordOp::guarded_load(3, 0b001, {1, 0, 2});
  // Different state counts = different automata: tables don't compose.
  EXPECT_FALSE(try_compose(two, three).has_value());
  // Disjoint-path stores of two DISTINCT values: the composed table would
  // carry both, which the one-value wire form cannot, so even the default
  // budget (the §5.6 bound) declines.
  const DlsWordOp a = DlsWordOp::guarded_store(3, 11, 0b001, {1, 0, 0});
  const DlsWordOp b = DlsWordOp::guarded_store(3, 22, 0b100, {0, 0, 2});
  EXPECT_EQ(a.size_budget(), detail::dls_size_bound(3));
  EXPECT_FALSE(try_compose(a, b).has_value());
  // The same paths storing the SAME value combine, into one value...
  const DlsWordOp same = DlsWordOp::guarded_store(3, 11, 0b100, {0, 0, 2});
  const auto ab = try_compose(a, same);
  ASSERT_TRUE(ab.has_value());
  EXPECT_EQ(ab->distinct_store_values(), 1u);
  EXPECT_EQ(ab->apply(dls_pack({5, 0})), dls_pack({11, 1}));
  EXPECT_EQ(ab->apply(dls_pack({5, 2})), dls_pack({11, 2}));
  // ...unless the budget is narrowed below one value: table only.
  const auto table_only = detail::dls_encoded_bytes(3, 0);
  EXPECT_FALSE(try_compose(a.with_size_budget(table_only), same).has_value());
}

// Through AnyRmw: the family combines with itself, declines cross-family,
// and the §7 switch sees exactly the family's decline rule.
TEST(DlsWord, AnyRmwCarriesTheFamily) {
  const DlsWordOp put = DlsWordOp::guarded_store(3, 7, 0b011, {1, 2, 2});
  const AnyRmw any(put);
  EXPECT_TRUE(any.holds<DlsWordOp>());
  EXPECT_EQ(any.apply(dls_pack({0, 0})), put.apply(dls_pack({0, 0})));
  EXPECT_EQ(any.encoded_size_bytes(), 1 + put.encoded_size_bytes());
  EXPECT_TRUE(try_compose(any, AnyRmw(put)).has_value());
  EXPECT_FALSE(try_compose(any, AnyRmw(FetchAdd(1))).has_value());
}

// §5.6's wire budget as exact combining rates, through the tree's
// single-caller wave (BM_DlsWave's rig): each round two puts into
// leaf-sharing slots, then two gets. Each wave makes one fold attempt; the
// gets carry no store value and always fold.
struct WaveRates {
  double combine_rate;
  double declined_fold_rate;
};

template <typename Put>
WaveRates dls_wave_rates(const Put& put) {
  const krs::workload::ProducerConsumerPath pc;
  krs::runtime::CombiningBackend backend(4);
  krs::runtime::CombiningBackend::Cell cell(backend, dls_pack({0, 0}));
  for (Word v = 1; v <= 16; ++v) {
    (void)cell.combiner.run_wave({{0, AnyRmw(put(pc, v))},
                                  {1, AnyRmw(put(pc, v + 500))}});
    (void)cell.combiner.run_wave({{0, AnyRmw(pc.get())},
                                  {1, AnyRmw(pc.get())}});
  }
  const auto st = cell.combiner.stats();
  EXPECT_EQ(st.ops, 64u);
  return {st.combine_rate(),
          static_cast<double>(st.declined_folds) /
              static_cast<double>(st.folds + st.declined_folds)};
}

TEST(DlsWord, WaveRatesPinTheWireBudget) {
  using PC = krs::workload::ProducerConsumerPath;
  // Distinct values at the default budget: the puts' composition needs two
  // store values, so every put fold declines and only the gets combine.
  const WaveRates distinct =
      dls_wave_rates([](const PC& pc, Word v) { return pc.put(v); });
  EXPECT_DOUBLE_EQ(distinct.combine_rate, 0.25);
  EXPECT_DOUBLE_EQ(distinct.declined_fold_rate, 0.5);
  // The same value in both puts (v and v + 500 both put v): one store
  // value, so both waves fold.
  const WaveRates same =
      dls_wave_rates([](const PC& pc, Word v) { return pc.put(v % 500); });
  EXPECT_DOUBLE_EQ(same.combine_rate, 0.5);
  EXPECT_DOUBLE_EQ(same.declined_fold_rate, 0.0);
  // A table-only budget has no room for a value: same-value puts decline.
  const auto table_only = detail::dls_encoded_bytes(3, 0);
  const WaveRates narrow = dls_wave_rates([&](const PC& pc, Word v) {
    return pc.put(v % 500).with_size_budget(table_only);
  });
  EXPECT_DOUBLE_EQ(narrow.combine_rate, 0.25);
  EXPECT_DOUBLE_EQ(narrow.declined_fold_rate, 0.5);
}

// --- multi-thread guarded-op conservation over the substrates ----------------

// The producer/consumer path `put (put get)* get` hammered from 2/4/8
// threads: acked puts minus acked gets equals the final occupancy (the
// automaton state), every got value was some acked put's value, and the
// host's ack/nack ledger accounts for every issue. Mirrors the
// hotspot-ticket pattern: same workload, every substrate, same invariants.
template <typename B>
void guarded_conservation(B backend) {
  const krs::workload::ProducerConsumerPath pc;
  for (const unsigned nt : {2u, 4u, 8u}) {
    B b = backend;
    krs::runtime::DlsHost<B> host(b);
    constexpr unsigned kPer = 300;
    std::vector<std::vector<Word>> put_acked(nt), got(nt);
    {
      std::vector<std::thread> ts;
      ts.reserve(nt);
      for (unsigned t = 0; t < nt; ++t) {
        ts.emplace_back([&, t] {
          for (unsigned i = 0; i < kPer; ++i) {
            if ((i + t) % 2 == 0) {
              const Word v = t * 100000 + i + 1;
              if (host.issue(pc.put(v)).ok) put_acked[t].push_back(v);
            } else {
              const auto r = host.issue(pc.get());
              if (r.ok) got[t].push_back(r.prior.value);
            }
          }
        });
      }
      for (auto& th : ts) th.join();
    }
    std::uint64_t puts = 0, gets = 0;
    std::set<Word> put_values;
    for (const auto& v : put_acked) {
      puts += v.size();
      put_values.insert(v.begin(), v.end());
    }
    for (const auto& v : got) gets += v.size();
    const DlsCell end = host.snapshot();
    ASSERT_LE(end.state, 2u);
    EXPECT_EQ(puts - gets, end.state) << "occupancy is acked puts - gets";
    for (const auto& v : got) {
      for (const Word w : v) {
        EXPECT_TRUE(put_values.count(w)) << "got a value nobody put: " << w;
      }
    }
    EXPECT_EQ(host.acks(), puts + gets);
    EXPECT_EQ(host.acks() + host.nacks(),
              static_cast<std::uint64_t>(nt) * kPer);
  }
}

TEST(DlsMt, GuardedConservationAtomic) {
  guarded_conservation(krs::runtime::AtomicBackend{});
}

TEST(DlsMt, GuardedConservationCombining) {
  guarded_conservation(krs::runtime::CombiningBackend{8});
}

TEST(DlsMt, GuardedConservationFlat) {
  guarded_conservation(krs::runtime::FlatCombiningBackend{8});
}

TEST(DlsMt, GuardedConservationShardedPinnedRoute) {
  // A DLS cell is ONE automaton — its state tag cannot stripe across
  // shards. Pinning every thread's route key sends all guarded ops to the
  // same inner cell; the other shards stay at packed 0, so the sum-
  // aggregated load still reads the automaton's word exactly.
  using Sharded = krs::runtime::ShardedBackend<krs::runtime::AtomicBackend>;
  const krs::workload::ProducerConsumerPath pc;
  Sharded b{krs::runtime::AtomicBackend{}, 4};
  krs::runtime::DlsHost<Sharded> host(b);
  constexpr unsigned kThreads = 4, kPer = 300;
  std::vector<std::vector<Word>> put_acked(kThreads), got(kThreads);
  {
    std::vector<std::thread> ts;
    for (unsigned t = 0; t < kThreads; ++t) {
      ts.emplace_back([&, t] {
        const krs::runtime::ScopedRouteKey pin(7);  // same shard for all
        for (unsigned i = 0; i < kPer; ++i) {
          if ((i + t) % 2 == 0) {
            const Word v = t * 100000 + i + 1;
            if (host.issue(pc.put(v)).ok) put_acked[t].push_back(v);
          } else {
            const auto r = host.issue(pc.get());
            if (r.ok) got[t].push_back(r.prior.value);
          }
        }
      });
    }
    for (auto& th : ts) th.join();
  }
  std::uint64_t puts = 0, gets = 0;
  for (const auto& v : put_acked) puts += v.size();
  for (const auto& v : got) gets += v.size();
  const krs::runtime::ScopedRouteKey pin(7);
  const DlsCell end = host.snapshot();
  EXPECT_EQ(puts - gets, end.state);
  EXPECT_EQ(host.acks() + host.nacks(),
            static_cast<std::uint64_t>(kThreads) * kPer);
}

// Whole sessions of the 2-state file path at 2/4/8 threads: only the
// open is contended (retry on nack), the held session's steps cannot
// nack, and every opened session closes — the file ends closed and the
// ack ledger is exactly four per session.
template <typename B>
void session_conservation(B backend) {
  const krs::workload::FileSessionPath fs;
  for (const unsigned nt : {2u, 4u, 8u}) {
    B b = backend;
    krs::runtime::DlsHost<B> host(b);
    constexpr unsigned kSessions = 40;
    {
      std::vector<std::thread> ts;
      ts.reserve(nt);
      for (unsigned t = 0; t < nt; ++t) {
        ts.emplace_back([&, t] {
          for (unsigned k = 0; k < kSessions; ++k) {
            ASSERT_TRUE(host.issue_until(fs.open(), 1u << 22).has_value());
            EXPECT_TRUE(host.issue(fs.read()).ok);
            EXPECT_TRUE(host.issue(fs.append(t * 1000 + k)).ok);
            EXPECT_TRUE(host.issue(fs.close()).ok);
          }
        });
      }
      for (auto& th : ts) th.join();
    }
    EXPECT_EQ(host.snapshot().state, 0u) << "every open must have closed";
    EXPECT_EQ(host.acks(), 4ull * nt * kSessions);
  }
}

TEST(DlsMt, FileSessionsAtomic) {
  session_conservation(krs::runtime::AtomicBackend{});
}

TEST(DlsMt, FileSessionsCombining) {
  session_conservation(krs::runtime::CombiningBackend{8});
}

}  // namespace
