// HDR-style log-linear histogram over non-negative integers (nanoseconds):
// the one histogram behind lock wait/hold times, serving latencies, the
// metrics registry and the telemetry wire.
//
// Each power-of-two octave is split into 2^sub_bits linear sub-buckets, so
// relative quantile error is bounded by 2^-sub_bits (~3%) across the whole
// 64-bit range; values below 2^sub_bits get a bucket each and are exact.
// Bucket indexing is pure integer arithmetic and merge is bucket-wise
// addition, so per-shard histograms merged in any order yield bit-identical
// quantiles — the property the sharded scenarios are gated on.
//
// Storage spans exactly the lowest to the highest bucket index seen, with no
// slack: every lock carries two of these, and serving latencies that start
// at tens of µs would otherwise pay for ~300 empty low buckets each.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

namespace adx::obs {

class log_histogram {
 public:
  static constexpr unsigned sub_bits = 5;
  /// Buckets needed to cover the whole 64-bit range (index_of(2^64-1) + 1).
  static constexpr std::size_t max_buckets = (64 - sub_bits + 1) << sub_bits;

  /// (bucket index, count) pairs, ascending by index.
  using sparse_buckets = std::vector<std::pair<std::uint32_t, std::uint64_t>>;

  void add(std::uint64_t v, std::uint64_t count = 1) {
    const std::size_t i = index_of(v);
    cover(i, i);
    buckets_[i - first_] += count;
    total_ += count;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
    // 128-bit accumulation: v * count alone can exceed 2^64 for wide counts,
    // and long runs of ns-scale values would silently wrap a 64-bit sum.
    sum_ += static_cast<unsigned __int128>(v) * count;
  }

  /// Bucket-wise sum; commutative and associative, so any merge tree over
  /// the same per-shard histograms produces the same result.
  void merge(const log_histogram& other) {
    if (!other.buckets_.empty()) {
      cover(other.first_, other.first_ + other.buckets_.size() - 1);
      for (std::size_t k = 0; k < other.buckets_.size(); ++k) {
        buckets_[other.first_ - first_ + k] += other.buckets_[k];
      }
    }
    total_ += other.total_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    sum_ += other.sum_;
  }

  /// Value at quantile q in [0, 1]: the inclusive upper bound of the bucket
  /// holding the ceil(q * total)-th sample, clamped to the exact max (exact
  /// for values below 2^sub_bits, within one sub-bucket above). Returns 0 on
  /// an empty histogram.
  [[nodiscard]] std::uint64_t quantile(double q) const {
    if (total_ == 0) return 0;
    q = std::clamp(q, 0.0, 1.0);
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total_))));
    std::uint64_t seen = 0;
    for (std::size_t k = 0; k < buckets_.size(); ++k) {
      seen += buckets_[k];
      if (seen >= rank) return std::min(bucket_hi(first_ + k), max_);
    }
    return max_;
  }

  [[nodiscard]] std::uint64_t p50() const { return quantile(0.50); }
  [[nodiscard]] std::uint64_t p99() const { return quantile(0.99); }
  [[nodiscard]] std::uint64_t p999() const { return quantile(0.999); }

  [[nodiscard]] std::uint64_t count() const { return total_; }
  [[nodiscard]] unsigned __int128 sum() const { return sum_; }
  [[nodiscard]] std::uint64_t min() const { return total_ ? min_ : 0; }
  [[nodiscard]] std::uint64_t max() const { return max_; }
  [[nodiscard]] double mean() const {
    return total_ ? static_cast<double>(sum_) / static_cast<double>(total_) : 0.0;
  }

  /// Buckets held in storage: lowest to highest index seen, inclusive.
  [[nodiscard]] std::size_t bucket_count() const { return buckets_.size(); }

  /// The non-zero buckets, ascending by index (the wire form).
  [[nodiscard]] sparse_buckets sparse() const {
    sparse_buckets out;
    for (std::size_t k = 0; k < buckets_.size(); ++k) {
      if (buckets_[k] != 0) out.emplace_back(static_cast<std::uint32_t>(first_ + k), buckets_[k]);
    }
    return out;
  }

  /// Index of the bucket recording `v` — values below 2^sub_bits map 1:1;
  /// above, the octave (msb - sub_bits) selects a block of 2^sub_bits
  /// sub-buckets and the top sub_bits bits below the msb select within it.
  [[nodiscard]] static constexpr std::size_t index_of(std::uint64_t v) {
    if (v < (1ULL << sub_bits)) return static_cast<std::size_t>(v);
    const unsigned msb = 63U - static_cast<unsigned>(std::countl_zero(v));
    const unsigned shift = msb - sub_bits;
    return static_cast<std::size_t>(((static_cast<std::uint64_t>(shift) + 1) << sub_bits) +
                                    ((v >> shift) - (1ULL << sub_bits)));
  }

  /// Inclusive upper bound of bucket i (its largest representable value).
  [[nodiscard]] static constexpr std::uint64_t bucket_hi(std::size_t i) {
    if (i < (1ULL << sub_bits)) return i;
    const std::uint64_t block = (i >> sub_bits) - 1;  // == shift
    const std::uint64_t sub = (i & ((1ULL << sub_bits) - 1)) + (1ULL << sub_bits);
    return ((sub + 1) << block) - 1;
  }

  /// Why `sparse` cannot be the bucket state of a histogram holding `count`
  /// samples, or nullptr if it can: indices must lie below max_buckets and
  /// be strictly ascending, and the bucket counts must sum to `count`.
  [[nodiscard]] static const char* sparse_error(std::uint64_t count,
                                                const sparse_buckets& sparse) {
    std::uint64_t seen = 0;
    for (std::size_t k = 0; k < sparse.size(); ++k) {
      const auto [i, n] = sparse[k];
      if (i >= max_buckets) return "bucket index out of range";
      if (k > 0 && i <= sparse[k - 1].first) return "bucket indices not ascending";
      if (n > std::numeric_limits<std::uint64_t>::max() - seen) {
        return "bucket counts overflow";
      }
      seen += n;
    }
    return seen == count ? nullptr : "bucket counts do not sum to count";
  }

  /// Rebuilds a histogram from its parts (a telemetry snapshot). Throws
  /// std::invalid_argument when sparse_error() rejects the buckets.
  [[nodiscard]] static log_histogram restore(std::uint64_t count, unsigned __int128 sum,
                                             std::uint64_t mn, std::uint64_t mx,
                                             const sparse_buckets& sparse) {
    if (const char* why = sparse_error(count, sparse)) throw std::invalid_argument(why);
    log_histogram h;
    if (!sparse.empty()) h.cover(sparse.front().first, sparse.back().first);
    for (const auto& [i, n] : sparse) h.buckets_[i - h.first_] = n;
    h.total_ = count;
    h.sum_ = sum;
    h.min_ = count ? mn : std::numeric_limits<std::uint64_t>::max();
    h.max_ = mx;
    return h;
  }

  void reset() { *this = log_histogram{}; }

  bool operator==(const log_histogram&) const = default;

 private:
  /// Widens storage to span bucket indices [lo, hi] exactly.
  void cover(std::size_t lo, std::size_t hi) {
    const std::size_t end = first_ + buckets_.size();
    if (lo >= first_ && hi < end) return;  // never true while empty
    if (buckets_.empty()) {
      buckets_.assign(hi - lo + 1, 0);
      first_ = lo;
      return;
    }
    const std::size_t new_lo = std::min(lo, first_);
    std::vector<std::uint64_t> grown(std::max(hi + 1, end) - new_lo, 0);
    std::copy(buckets_.begin(), buckets_.end(), grown.begin() + (first_ - new_lo));
    buckets_ = std::move(grown);
    first_ = new_lo;
  }

  std::vector<std::uint64_t> buckets_;  ///< buckets_[k] counts index first_ + k
  std::size_t first_{0};
  std::uint64_t total_{0};
  std::uint64_t min_{std::numeric_limits<std::uint64_t>::max()};
  std::uint64_t max_{0};
  unsigned __int128 sum_{0};
};

}  // namespace adx::obs
