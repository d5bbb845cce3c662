// The shadow-memory contention profiler, driven with scripted access
// streams (exact count/flag/ranking assertions — the profiler is a pure
// function of the event sequence) and through the instrumented runtime
// primitives with VIRTUAL thread ids, so every expectation here is
// schedule-free and exact on any host.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/contention_profiler.hpp"
#include "analysis/instrument.hpp"
#include "core/any_rmw.hpp"
#include "core/fetch_theta.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/combining_backend.hpp"
#include "runtime/combining_tree.hpp"
#include "runtime/rmw_backend.hpp"
#include "runtime/ticket_lock.hpp"

namespace {

using namespace krs::analysis;

// A cache-line-aligned arena: byte i of line l is at lines[l].b[i], so
// scripted streams can place accesses at exact line/offset coordinates.
struct Arena {
  struct alignas(krs::runtime::kCacheLine) Line {
    unsigned char b[krs::runtime::kCacheLine];
  };
  Line lines[4]{};

  [[nodiscard]] const void* at(unsigned line, unsigned byte) const {
    return &lines[line].b[byte];
  }
};

TEST(ContentionProfiler, CountsByKindAndLineAreExact) {
  ContentionProfiler p;
  Arena a;
  p.on_rmw(0, a.at(0, 0));
  p.on_rmw(0, a.at(0, 8));
  p.on_load(0, a.at(0, 16));
  p.on_store(0, a.at(0, 24));
  p.on_rmw(0, a.at(1, 0));

  const LineProfile l0 = p.line_of(a.at(0, 63));
  EXPECT_EQ(l0.accesses, 4u);
  EXPECT_EQ(l0.rmws, 2u);
  EXPECT_EQ(l0.loads, 1u);
  EXPECT_EQ(l0.stores, 1u);
  EXPECT_EQ(l0.threads, 1u);

  const LineProfile l1 = p.line_of(a.at(1, 0));
  EXPECT_EQ(l1.accesses, 1u);
  EXPECT_EQ(l1.rmws, 1u);

  const ContentionReport r = p.report();
  EXPECT_EQ(r.total_accesses, 5u);
  EXPECT_EQ(r.lines.size(), 2u);
  EXPECT_EQ(p.events(), 5u);
}

TEST(ContentionProfiler, UnseenLineIsZeroed) {
  ContentionProfiler p;
  Arena a;
  const LineProfile l = p.line_of(a.at(2, 0));
  EXPECT_EQ(l.accesses, 0u);
  EXPECT_EQ(l.base, 0u);
  EXPECT_FALSE(l.hot);
}

TEST(ContentionProfiler, ConflictsCountOwnershipTransfers) {
  ContentionProfiler p;
  Arena a;
  // t0 t0 t1 t0 t1 t1 → transfers at positions 3, 4, 5: 3 conflicts.
  const std::uint32_t tids[] = {0, 0, 1, 0, 1, 1};
  for (const std::uint32_t t : tids) p.on_rmw(t, a.at(0, 0));
  const LineProfile l = p.line_of(a.at(0, 0));
  EXPECT_EQ(l.accesses, 6u);
  EXPECT_EQ(l.conflicts, 3u);
  EXPECT_EQ(l.threads, 2u);
  EXPECT_DOUBLE_EQ(l.conflict_rate, 3.0 / 5.0);
}

TEST(ContentionProfiler, SingleThreadHasNothingToCombineWith) {
  ContentionProfiler p;
  Arena a;
  for (int i = 0; i < 100; ++i) p.on_rmw(7, a.at(0, 0));
  const LineProfile l = p.line_of(a.at(0, 0));
  EXPECT_EQ(l.conflicts, 0u);
  EXPECT_DOUBLE_EQ(l.max_thread_share, 1.0);
  EXPECT_DOUBLE_EQ(l.absorbable, 0.0);
  EXPECT_DOUBLE_EQ(l.est_absorbed_ops, 0.0);
  EXPECT_FALSE(l.hot);  // many accesses, but one thread
}

TEST(ContentionProfiler, BalancedThreadsAbsorbAllButOneShare) {
  ContentionProfiler p;
  Arena a;
  // 4 threads, 32 ops round-robin: max share 1/4, absorbable 3/4, and
  // the cycle estimate uses the §3/§6 round trip 2·log2(4)+1+latency(2).
  for (int i = 0; i < 32; ++i) {
    p.on_rmw(static_cast<std::uint32_t>(i % 4), a.at(0, 0));
  }
  const LineProfile l = p.line_of(a.at(0, 0));
  EXPECT_TRUE(l.hot);
  EXPECT_DOUBLE_EQ(l.max_thread_share, 0.25);
  EXPECT_DOUBLE_EQ(l.absorbable, 0.75);
  EXPECT_DOUBLE_EQ(l.est_absorbed_ops, 24.0);
  EXPECT_DOUBLE_EQ(l.est_cycles_saved, 24.0 * (2 * 2 + 1 + 2));
  EXPECT_EQ(l.conflicts, 31u);  // every consecutive pair switches threads
}

TEST(ContentionProfiler, FalseSharingNeedsDisjointSiteOffsets) {
  ContentionProfiler p;
  Arena a;
  // Two sites, two threads, DISJOINT words of one line: false sharing.
  const AccessSite s1{"a.cpp:1"};
  const AccessSite s2{"a.cpp:2"};
  for (int i = 0; i < 8; ++i) {
    p.on_store(0, a.at(0, 0), s1);   // word 0
    p.on_store(1, a.at(0, 32), s2);  // word 4
  }
  const LineProfile l = p.line_of(a.at(0, 0));
  EXPECT_TRUE(l.false_sharing);
  EXPECT_EQ(l.sites, 2u);

  // Same two sites OVERLAPPING on word 0: genuine sharing, no flag.
  ContentionProfiler q;
  for (int i = 0; i < 8; ++i) {
    q.on_store(0, a.at(1, 0), s1);
    q.on_store(1, a.at(1, 4), s2);  // byte 4 is still word 0
  }
  EXPECT_FALSE(q.line_of(a.at(1, 0)).false_sharing);
}

TEST(ContentionProfiler, RankingOrdersByAbsorbedTraffic) {
  ContentionProfiler p;
  Arena a;
  // Line 0: 40 ops from one thread — zero absorbable despite most ops.
  for (int i = 0; i < 40; ++i) p.on_rmw(0, a.at(0, 0));
  // Line 1: 32 ops from 4 threads — 24 absorbable.
  for (int i = 0; i < 32; ++i) {
    p.on_rmw(static_cast<std::uint32_t>(i % 4), a.at(1, 0));
  }
  // Line 2: 16 ops from 2 threads — 8 absorbable.
  for (int i = 0; i < 16; ++i) {
    p.on_rmw(static_cast<std::uint32_t>(i % 2), a.at(2, 0));
  }
  const ContentionReport r = p.report();
  ASSERT_EQ(r.lines.size(), 3u);
  EXPECT_EQ(r.lines[0].base,
            reinterpret_cast<std::uintptr_t>(a.at(1, 0)));
  EXPECT_EQ(r.lines[1].base,
            reinterpret_cast<std::uintptr_t>(a.at(2, 0)));
  EXPECT_EQ(r.lines[2].base,
            reinterpret_cast<std::uintptr_t>(a.at(0, 0)));
  EXPECT_EQ(r.hot_lines, 2u);  // lines 1 and 2; line 0 is single-threaded
}

TEST(ContentionProfiler, GapHistogramSeparatesHotFromBackground) {
  ContentionProfiler p;
  Arena a;
  // Line 0 is hit every event (gap 1); line 1 every 8th event (gap 8).
  for (int i = 0; i < 64; ++i) {
    p.on_rmw(static_cast<std::uint32_t>(i % 2), a.at(0, 0));
    if (i % 8 == 0) p.on_load(0, a.at(1, 0));
  }
  const LineProfile hot = p.line_of(a.at(0, 0));
  const LineProfile bg = p.line_of(a.at(1, 0));
  EXPECT_LT(hot.gap_mean, bg.gap_mean);
  EXPECT_LE(hot.gap_p50, 2u);
  EXPECT_GE(bg.gap_p50, 8u);
}

TEST(ContentionProfiler, TopSitesRankedByCount) {
  ContentionProfiler p;
  Arena a;
  const AccessSite s1{"hot.cpp:1"};
  const AccessSite s2{"warm.cpp:2"};
  for (int i = 0; i < 10; ++i) p.on_rmw(0, a.at(0, 0), s1);
  for (int i = 0; i < 3; ++i) p.on_rmw(1, a.at(0, 0), s2);
  const LineProfile l = p.line_of(a.at(0, 0));
  ASSERT_EQ(l.top_sites.size(), 2u);
  EXPECT_EQ(l.top_sites[0].site, "hot.cpp:1");
  EXPECT_EQ(l.top_sites[0].count, 10u);
  EXPECT_EQ(l.top_sites[1].site, "warm.cpp:2");
}

TEST(ContentionProfiler, JsonReportCarriesTheRankedFields) {
  ContentionProfiler p;
  Arena a;
  for (int i = 0; i < 32; ++i) {
    p.on_rmw(static_cast<std::uint32_t>(i % 4), a.at(0, 0), {"x.cpp:9"});
  }
  const std::string j = p.report().to_json();
  EXPECT_NE(j.find("\"total_accesses\":32"), std::string::npos);
  EXPECT_NE(j.find("\"hot_lines\":1"), std::string::npos);
  EXPECT_NE(j.find("\"absorbable_fraction\":0.7500"), std::string::npos);
  EXPECT_NE(j.find("\"site\":\"x.cpp:9\""), std::string::npos);
  EXPECT_NE(j.find("\"false_sharing\":false"), std::string::npos);
}

// --- virtual thread ids ------------------------------------------------------

TEST(ProfileTid, ScopedOverrideRestoresPreviousValue) {
  const std::uint32_t auto_id = profile_self_tid();
  {
    ScopedProfileTid outer(11);
    EXPECT_EQ(profile_self_tid(), 11u);
    {
      ScopedProfileTid inner(22);
      EXPECT_EQ(profile_self_tid(), 22u);
    }
    EXPECT_EQ(profile_self_tid(), 11u);
  }
  EXPECT_EQ(profile_self_tid(), auto_id);  // auto id is stable per thread
}

// --- plumbing through the instrumented primitives ---------------------------

TEST(ProfilerPlumbing, AtomicBackendTrafficReachesTheProfiler) {
  krs::runtime::BasicAtomicBackend<GlobalInstrument> backend;
  decltype(backend)::Cell cell(backend, 0);
  ContentionProfiler p;
  {
    ScopedProfiler scope(p);
    for (int i = 0; i < 16; ++i) {
      ScopedProfileTid tid(100u + static_cast<std::uint32_t>(i % 2));
      backend.fetch_add(cell, 1);
    }
    ScopedProfileTid tid(102);
    backend.store(cell, 5);
    EXPECT_EQ(backend.load(cell), 5u);
  }
  // Outside the scope nothing is recorded.
  backend.fetch_add(cell, 1);

  const LineProfile l = p.line_of(&cell.word);
  EXPECT_EQ(l.rmws, 16u);
  EXPECT_EQ(l.stores, 1u);
  EXPECT_EQ(l.loads, 1u);
  EXPECT_EQ(l.threads, 3u);  // three distinct virtual tids
  EXPECT_TRUE(l.hot);
}

TEST(ProfilerPlumbing, TicketLockWordsAreAttributedSeparately) {
  krs::runtime::BasicTicketLock<GlobalInstrument> lk;
  ContentionProfiler p;
  {
    ScopedProfiler scope(p);
    for (int i = 0; i < 8; ++i) {
      ScopedProfileTid tid(static_cast<std::uint32_t>(i % 2));
      lk.lock();
      lk.unlock();
    }
  }
  const ContentionReport r = p.report();
  // next_ and serving_ are alignas(kCacheLine) members: two distinct
  // lines, each with 8 RMWs (uncontended: one ticket + one serve each).
  ASSERT_EQ(r.lines.size(), 2u);
  EXPECT_EQ(r.lines[0].rmws, 8u);
  EXPECT_EQ(r.lines[1].rmws, 8u);
  EXPECT_EQ(r.total_accesses, 24u);  // + one serving_ re-read per lock()
}

TEST(ProfilerPlumbing, WaveDrivenCombiningTreeHalvesRootTraffic) {
  using Tree =
      krs::runtime::MappingCombiningTree<krs::core::AnyRmw, GlobalInstrument>;
  Tree tree(4, 0);
  std::vector<Tree::WaveOp> wave;
  for (unsigned s = 0; s < 4; ++s) {
    wave.push_back({s, krs::core::AnyRmw(krs::core::FetchAdd(1))});
  }
  ContentionProfiler p;
  constexpr unsigned kWaves = 16;
  {
    ScopedProfiler scope(p);
    for (unsigned w = 0; w < kWaves; ++w) {
      const auto priors = tree.run_wave(wave, [](std::size_t i) {
        set_profile_tid(static_cast<std::uint32_t>(i));
      });
      ASSERT_EQ(priors.size(), 4u);
    }
    set_profile_tid(kProfileTidAuto);
  }
  EXPECT_EQ(tree.read(), 4u * kWaves);  // every add landed exactly once

  // The deterministic wave schedule: per wave, the two subtree firsts
  // reach the root (2 root applies) and the two seconds fold (2 folds).
  // A wave never takes the direct root CAS.
  const auto st = tree.stats();
  EXPECT_EQ(st.root_applies, 2u * kWaves);
  EXPECT_EQ(st.folds, 2u * kWaves);
  EXPECT_EQ(st.direct_applies, 0u);

  // The profiler sees the same story at the root word: 2 RMWs per wave
  // instead of the 4 an uncombined counter would take, alternating
  // between the two firsts' virtual tids.
  const LineProfile root = p.line_of(tree.value_address());
  EXPECT_EQ(root.rmws, 2u * kWaves);
  EXPECT_EQ(root.threads, 2u);
  EXPECT_EQ(root.conflicts, 2u * kWaves - 1);
}

TEST(ProfilerPlumbing, CombiningBackendCompareExchangeHitsTheRootWord) {
  krs::runtime::BasicCombiningBackend<GlobalInstrument> backend(4);
  decltype(backend)::Cell cell(backend, 0);
  ContentionProfiler p;
  {
    ScopedProfiler scope(p);
    krs::runtime::Word expected = 0;
    EXPECT_TRUE(backend.compare_exchange(cell, expected, 9));
  }
  EXPECT_EQ(p.line_of(cell.combiner.value_address()).rmws, 1u);
}

}  // namespace
