// Log-linear latency histogram for krs-bench.
//
// Every power-of-two range [2^b, 2^(b+1)) is split into 32 equal linear
// sub-buckets, so no bucket is wider than 1/32 of its lower edge; values
// below 64 get exact unit buckets. A percentile therefore lands within 1/32
// relative error of the exact order statistic, instead of on a power-of-two
// bucket edge. Buckets are fixed, so merging per-thread histograms is a
// bucket-wise sum and loses nothing.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace krs_bench {

class Histogram {
 public:
  static constexpr unsigned kSubBits = 5;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = kSub + (64 - kSubBits) * kSub;

  /// Allocates (and zeroes, so touches) every bucket up front: recording a
  /// sample never allocates or faults a fresh page.
  Histogram() : counts_(kBuckets, 0) {}

  static std::size_t index(std::uint64_t v) noexcept {
    if (v < kSub) return static_cast<std::size_t>(v);
    const unsigned shift = static_cast<unsigned>(std::bit_width(v)) - 1 -
                           kSubBits;
    return kSub + shift * kSub + ((v >> shift) & (kSub - 1));
  }
  static std::uint64_t lower(std::size_t i) noexcept {
    if (i < kSub) return i;
    const std::size_t shift = (i - kSub) / kSub;
    return (kSub + (i - kSub) % kSub) << shift;
  }
  static std::uint64_t width(std::size_t i) noexcept {
    return i < kSub ? 1 : std::uint64_t{1} << ((i - kSub) / kSub);
  }

  void add(std::uint64_t v) noexcept {
    ++counts_[index(v)];
    ++total_;
  }

  void merge(const Histogram& o) noexcept {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    total_ += o.total_;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return total_; }
  [[nodiscard]] const std::vector<std::uint64_t>& buckets() const noexcept {
    return counts_;
  }

  /// The q-quantile by nearest rank (rank ⌈q·n⌉). Inside a unit bucket the
  /// value is exact; inside a wider one it is interpolated by rank, which
  /// keeps it inside the bucket that holds the exact order statistic.
  [[nodiscard]] double percentile(double q) const noexcept {
    if (total_ == 0) return 0.0;
    double r = std::ceil(q * static_cast<double>(total_));
    if (r < 1.0) r = 1.0;
    const auto rank = static_cast<std::uint64_t>(r);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const std::uint64_t c = counts_[i];
      if (c == 0 || seen + c < rank) {
        seen += c;
        continue;
      }
      const double lo = static_cast<double>(lower(i));
      if (width(i) == 1) return lo;
      const double within =
          (static_cast<double>(rank - seen) - 0.5) / static_cast<double>(c);
      return lo + within * static_cast<double>(width(i));
    }
    return static_cast<double>(lower(kBuckets - 1));
  }

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace krs_bench
