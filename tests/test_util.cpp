// Unit tests for the utility layer: RNG determinism and distribution
// sanity, exact rational arithmetic with overflow detection, bit helpers,
// streaming statistics, and the CSP channel.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "util/bits.hpp"
#include "util/channel.hpp"
#include "util/rational.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using krs::util::Channel;
using krs::util::LogHistogram;
using krs::util::Rational;
using krs::util::RunningStats;
using krs::util::SplitMix64;
using krs::util::Xoshiro256;

TEST(Rng, SplitMixKnownValues) {
  // Reference values for seed 0 from the published splitmix64 algorithm.
  SplitMix64 g(0);
  EXPECT_EQ(g.next(), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(g.next(), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(g.next(), 0x06c45d188009454fULL);
}

TEST(Rng, DeterministicForSeed) {
  Xoshiro256 a(42), b(42), c(43);
  bool any_diff = false;
  for (int i = 0; i < 100; ++i) {
    const auto x = a.next();
    EXPECT_EQ(x, b.next());
    if (x != c.next()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, BelowIsInRangeAndRoughlyUniform) {
  Xoshiro256 g(7);
  constexpr std::uint64_t kBound = 10;
  std::vector<int> counts(kBound, 0);
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    const auto x = g.below(kBound);
    ASSERT_LT(x, kBound);
    ++counts[x];
  }
  for (auto c : counts) {
    EXPECT_GT(c, kDraws / static_cast<int>(kBound) * 8 / 10);
    EXPECT_LT(c, kDraws / static_cast<int>(kBound) * 12 / 10);
  }
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 g(1);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = g.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Bits, Log2AndPow2) {
  using krs::util::ceil_pow2;
  using krs::util::is_pow2;
  using krs::util::log2_ceil;
  using krs::util::log2_floor;
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(65));
  EXPECT_EQ(log2_floor(1), 0u);
  EXPECT_EQ(log2_floor(63), 5u);
  EXPECT_EQ(log2_floor(64), 6u);
  EXPECT_EQ(log2_ceil(1), 0u);
  EXPECT_EQ(log2_ceil(63), 6u);
  EXPECT_EQ(log2_ceil(64), 6u);
  EXPECT_EQ(log2_ceil(65), 7u);
  EXPECT_EQ(ceil_pow2(1), 1u);
  EXPECT_EQ(ceil_pow2(65), 128u);
}

TEST(Rational, NormalizationAndEquality) {
  EXPECT_EQ(Rational(2, 4), Rational(1, 2));
  EXPECT_EQ(Rational(-2, -4), Rational(1, 2));
  EXPECT_EQ(Rational(2, -4), Rational(-1, 2));
  EXPECT_EQ(Rational(0, 5), Rational(0));
  EXPECT_FALSE(Rational(1, 0).ok());
  // Invalid compares unequal to everything, like NaN.
  EXPECT_FALSE(Rational::invalid() == Rational::invalid());
}

TEST(Rational, Arithmetic) {
  const Rational half(1, 2), third(1, 3);
  EXPECT_EQ(half + third, Rational(5, 6));
  EXPECT_EQ(half - third, Rational(1, 6));
  EXPECT_EQ(half * third, Rational(1, 6));
  EXPECT_EQ(half / third, Rational(3, 2));
  EXPECT_EQ(-half, Rational(-1, 2));
  EXPECT_EQ((half / Rational(0)).ok(), false);
}

TEST(Rational, IntegerInterface) {
  EXPECT_TRUE(Rational(6, 3).is_integer());
  EXPECT_EQ(Rational(6, 3).as_integer(), 2);
  EXPECT_FALSE(Rational(1, 2).is_integer());
  EXPECT_EQ(Rational(3, 2).to_string(), "3/2");
  EXPECT_EQ(Rational(4).to_string(), "4");
}

TEST(Rational, OverflowDetected) {
  const Rational big(INT64_MAX);
  EXPECT_FALSE((big * big).ok());
  EXPECT_FALSE((big + Rational(1)).ok());
  // Once invalid, everything stays invalid.
  EXPECT_FALSE(((big * big) + Rational(1)).ok());
}

TEST(Rational, GcdReductionDelaysOverflow) {
  // (2^40/3) * (3/2^40) must not overflow despite large cross products.
  const Rational a(std::int64_t{1} << 40, 3);
  const Rational b(3, std::int64_t{1} << 40);
  EXPECT_EQ(a * b, Rational(1));
}

TEST(Stats, RunningStatsBasic) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Stats, MergeMatchesSequential) {
  RunningStats all, a, b;
  Xoshiro256 g(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = g.uniform() * 10;
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(Stats, LogHistogramQuantiles) {
  LogHistogram h;
  for (std::uint64_t i = 0; i < 1000; ++i) h.add(i);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(h.mean(), 499.5, 1e-9);
  // The 50% quantile of 0..999 lies in the bucket covering 512.
  EXPECT_GE(h.quantile_bound(0.5), 500u);
  // q = 1 is the maximum sample's bucket, not "past the last bucket".
  EXPECT_EQ(h.quantile_bound(1.0), 1023u);

  // Nearest rank, as percentile(): the 99th of 100 samples is a 1, so
  // the bound is bucket 0's, not the lone outlier's [512, 1023].
  LogHistogram tail;
  for (int i = 0; i < 99; ++i) tail.add(1);
  tail.add(1000);
  EXPECT_LE(tail.percentile(0.99), 1.0);
  EXPECT_EQ(tail.quantile_bound(0.99), 1u);
  EXPECT_EQ(tail.quantile_bound(1.0), 1023u);
}

TEST(Stats, LogHistogramMergeIsBucketExact) {
  // Splitting a sample stream across accumulators and merging must equal
  // one accumulator that saw everything — the property the parallel
  // engine's per-worker stats reduction relies on.
  LogHistogram all;
  LogHistogram even;
  LogHistogram odd;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    all.add(i * 3);
    (i % 2 == 0 ? even : odd).add(i * 3);
  }
  even.merge(odd);
  EXPECT_EQ(even.count(), all.count());
  EXPECT_NEAR(even.mean(), all.mean(), 1e-9);
  for (unsigned b = 0; b < LogHistogram::kBuckets; ++b) {
    EXPECT_EQ(even.bucket(b), all.bucket(b)) << "bucket " << b;
  }
  EXPECT_EQ(even.quantile_bound(0.9), all.quantile_bound(0.9));

  // Merging an empty histogram is the identity.
  LogHistogram empty;
  all.merge(empty);
  EXPECT_EQ(all.count(), 1000u);
}

TEST(Stats, LogHistogramPercentileInterpolates) {
  LogHistogram empty;
  EXPECT_EQ(empty.percentile(0.5), 0.0);

  // One sample: every quantile is that sample's bucket, mid-positioned.
  LogHistogram one;
  one.add(100);  // bucket [64, 127]
  EXPECT_GE(one.percentile(0.0), 64.0);
  EXPECT_LE(one.percentile(1.0), 127.0);

  // 1..100: nearest-rank + mid-sample interpolation is exactly
  // computable by hand. Rank 50 is the 19th of 32 samples in [32, 63]
  // → 32 + (18.5/32)·31; rank 99 is the 36th of 37 in [64, 127]
  // → 64 + (35.5/37)·63.
  LogHistogram h;
  for (std::uint64_t i = 1; i <= 100; ++i) h.add(i);
  EXPECT_NEAR(h.percentile(0.50), 32.0 + (18.5 / 32.0) * 31.0, 1e-9);
  EXPECT_NEAR(h.percentile(0.99), 64.0 + (35.5 / 37.0) * 63.0, 1e-9);
  // Monotone in q; out-of-range q clamps to the extremes.
  double prev = 0.0;
  for (const double q : {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const double v = h.percentile(q);
    EXPECT_GE(v, prev) << "q " << q;
    prev = v;
  }
  EXPECT_EQ(h.percentile(-1.0), h.percentile(0.0));
  EXPECT_EQ(h.percentile(2.0), h.percentile(1.0));
}

TEST(Stats, LogHistogramMergePreservesQuantiles) {
  // The property per-worker latency reservoirs (the parallel engine's
  // stats reduction) rely on: because merge() is bucket-exact and
  // percentile() reads only bucket counts, merging N per-worker
  // histograms yields EXACTLY the percentiles of one histogram that saw
  // every sample — no quantile drift from sharding the stream,
  // regardless of how it was split.
  LogHistogram all;
  LogHistogram workers[4];
  krs::util::Xoshiro256 rng(77);
  for (std::uint64_t i = 0; i < 4000; ++i) {
    const std::uint64_t sample = rng.below(1 << 20);
    all.add(sample);
    workers[rng.below(4)].add(sample);  // uneven split on purpose
  }
  LogHistogram merged;
  for (auto& w : workers) merged.merge(w);
  EXPECT_EQ(merged.count(), all.count());
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(merged.percentile(q), all.percentile(q)) << "q " << q;
  }
}

TEST(Channel, SendReceiveOrder) {
  Channel<int> ch(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ch.send(i));
  for (int i = 0; i < 4; ++i) EXPECT_EQ(ch.receive(), i);
}

TEST(Channel, BlocksUntilCapacityFrees) {
  Channel<int> ch(1);
  ASSERT_TRUE(ch.send(1));
  std::thread t([&] {
    EXPECT_EQ(ch.receive(), 1);
    EXPECT_EQ(ch.receive(), 2);
  });
  EXPECT_TRUE(ch.send(2));  // blocks until the thread drains the first
  t.join();
}

TEST(Channel, CloseWakesReceiversAndFailsSenders) {
  Channel<int> ch(1);
  std::thread t([&] { EXPECT_EQ(ch.receive(), std::nullopt); });
  ch.close();
  t.join();
  EXPECT_FALSE(ch.send(5));
}

TEST(Channel, TryReceive) {
  Channel<int> ch(2);
  EXPECT_EQ(ch.try_receive(), std::nullopt);
  ch.send(9);
  EXPECT_EQ(ch.try_receive(), 9);
}

TEST(Channel, ManyProducersOneConsumer) {
  Channel<int> ch(8);
  constexpr int kPerProducer = 500;
  constexpr int kProducers = 4;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ch] {
      for (int i = 0; i < kPerProducer; ++i) ASSERT_TRUE(ch.send(1));
    });
  }
  long sum = 0;
  for (int i = 0; i < kPerProducer * kProducers; ++i) sum += *ch.receive();
  for (auto& t : producers) t.join();
  EXPECT_EQ(sum, kPerProducer * kProducers);
}

}  // namespace
