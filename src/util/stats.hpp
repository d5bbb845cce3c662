// Streaming statistics accumulators used by the simulator's measurement
// layer: mean/min/max/variance (Welford) and a coarse log-scale histogram
// for latency distributions.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <string>

#include "util/bits.hpp"

namespace krs::util {

/// Welford online mean/variance plus min/max.
class RunningStats {
 public:
  void add(double x) noexcept {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const noexcept {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const noexcept { return std::sqrt(variance()); }
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }

  void merge(const RunningStats& o) noexcept {
    if (o.n_ == 0) return;
    if (n_ == 0) {
      *this = o;
      return;
    }
    const double total = static_cast<double>(n_ + o.n_);
    const double delta = o.mean_ - mean_;
    const double new_mean = mean_ + delta * static_cast<double>(o.n_) / total;
    m2_ += o.m2_ + delta * delta * static_cast<double>(n_) *
                       static_cast<double>(o.n_) / total;
    mean_ = new_mean;
    n_ += o.n_;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
  }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Power-of-two bucketed histogram for nonnegative integer samples
/// (e.g. request latencies in cycles). Bucket b holds samples in
/// [2^b, 2^(b+1)) with bucket 0 holding {0, 1}.
class LogHistogram {
 public:
  static constexpr unsigned kBuckets = 40;

  void add(std::uint64_t x) noexcept {
    const unsigned b = x <= 1 ? 0 : std::min(kBuckets - 1, log2_floor(x));
    ++buckets_[b];
    ++count_;
    sum_ += x;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
  }

  /// The q-quantile (q ∈ [0, 1]) with linear interpolation inside the
  /// covering bucket: the nearest-rank sample is located in its bucket
  /// and placed at its fractional position across the bucket's value
  /// range [lo, hi]. Exactly bucket-resolution accurate — and because
  /// merge() is bucket-exact, merging per-worker histograms yields the
  /// SAME percentile as one histogram fed every sample, so parallel
  /// reservoirs reduce without quantile drift. Compare quantile_bound(),
  /// which only reports the covering bucket's upper bound.
  [[nodiscard]] double percentile(double q) const noexcept {
    if (count_ == 0) return 0.0;
    const std::uint64_t rank = nearest_rank(q);
    std::uint64_t seen = 0;
    for (unsigned b = 0; b < kBuckets; ++b) {
      if (buckets_[b] == 0) continue;
      if (seen + buckets_[b] >= rank) {
        const double lo = b == 0 ? 0.0
                                 : static_cast<double>(std::uint64_t{1} << b);
        const double hi = b == 0
            ? 1.0
            : static_cast<double>((std::uint64_t{1} << (b + 1)) - 1);
        // Position of the target inside this bucket, mid-sample rule: the
        // i-th of n samples sits at (i - 0.5)/n across [lo, hi].
        const double frac =
            (static_cast<double>(rank - seen) - 0.5) /
            static_cast<double>(buckets_[b]);
        return lo + frac * (hi - lo);
      }
      seen += buckets_[b];
    }
    return static_cast<double>(sum_) /
           static_cast<double>(count_);  // unreachable: counts are consistent
  }

  /// Upper bound of the bucket holding the q-quantile: the same
  /// nearest-rank sample percentile() interpolates, reported at bucket
  /// resolution.
  [[nodiscard]] std::uint64_t quantile_bound(double q) const noexcept {
    if (count_ == 0) return 0;
    const std::uint64_t rank = nearest_rank(q);
    std::uint64_t seen = 0;
    for (unsigned b = 0; b < kBuckets; ++b) {
      seen += buckets_[b];
      if (seen >= rank) return (std::uint64_t{1} << (b + 1)) - 1;
    }
    return ~std::uint64_t{0};  // unreachable: counts are consistent
  }

  [[nodiscard]] std::uint64_t bucket(unsigned b) const noexcept {
    return b < kBuckets ? buckets_[b] : 0;
  }

  /// Fold another histogram into this one. Bucket-exact: merging per-worker
  /// histograms gives the same result as one histogram fed every sample, so
  /// parallel stats reduce without sharing (each worker owns its own
  /// accumulator, the single-threaded reduction merges afterwards).
  void merge(const LogHistogram& o) noexcept {
    for (unsigned b = 0; b < kBuckets; ++b) buckets_[b] += o.buckets_[b];
    count_ += o.count_;
    sum_ += o.sum_;
  }

 private:
  /// Nearest-rank target of the q-quantile (q clamped to [0, 1]): the
  /// ceil(q·n)-th sample, 1-based, so q=0 means the first sample.
  /// Requires count_ > 0.
  [[nodiscard]] std::uint64_t nearest_rank(double q) const noexcept {
    q = q < 0.0 ? 0.0 : (q > 1.0 ? 1.0 : q);
    const double scaled = q * static_cast<double>(count_);
    std::uint64_t rank = static_cast<std::uint64_t>(scaled);
    if (static_cast<double>(rank) < scaled) ++rank;
    return rank == 0 ? 1 : rank;
  }

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
};

}  // namespace krs::util
