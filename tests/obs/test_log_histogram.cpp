#include "obs/log_histogram.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "sim/rng.hpp"

namespace adx::obs {
namespace {

TEST(LogHistogram, EmptyIsAllZero) {
  log_histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.bucket_count(), 0u);  // nothing allocated until a sample lands
}

TEST(LogHistogram, EmptyQuantileIsZero) {
  log_histogram h;
  EXPECT_EQ(h.quantile(0.5), 0u);
  EXPECT_EQ(h.p99(), 0u);
}

TEST(LogHistogram, SingleSampleIsEveryPercentile) {
  log_histogram h;
  h.add(42);
  EXPECT_EQ(h.quantile(0.0), 42u);
  EXPECT_EQ(h.quantile(0.5), 42u);
  EXPECT_EQ(h.quantile(1.0), 42u);
  EXPECT_DOUBLE_EQ(h.mean(), 42.0);
  EXPECT_EQ(h.min(), 42u);
}

TEST(LogHistogram, PercentilesWithinQuantizationError) {
  log_histogram h;
  for (std::uint64_t i = 1; i <= 1000; ++i) h.add(i);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.quantile(0.0), 1u);
  EXPECT_EQ(h.quantile(1.0), 1000u);
  // A quantile is its bucket's inclusive upper bound: never below the exact
  // order statistic, and at most one sub-bucket (v / 2^sub_bits) above it.
  for (const std::uint64_t exact : {500ULL, 900ULL, 990ULL}) {
    const auto q = h.quantile(static_cast<double>(exact) / 1000.0);
    EXPECT_GE(q, exact);
    EXPECT_LE(q - exact, exact / 32) << exact;
  }
  EXPECT_DOUBLE_EQ(h.mean(), 500.5);
}

TEST(LogHistogram, ExactBelowSubBucketRange) {
  // With sub_bits = 5, values below 2^5 get one bucket each: quantiles in
  // that range are exact, not approximations.
  log_histogram h;
  for (std::uint64_t v = 0; v < 32; ++v) {
    EXPECT_EQ(log_histogram::index_of(v), v);
    EXPECT_EQ(log_histogram::bucket_hi(v), v);
    h.add(v);
  }
  EXPECT_EQ(h.quantile(0.5), 15u);
  EXPECT_EQ(h.quantile(1.0), 31u);
  EXPECT_EQ(h.max(), 31u);
}

TEST(LogHistogram, IndexAndBucketHiRoundTrip) {
  for (const std::uint64_t v : {32ULL, 33ULL, 63ULL, 64ULL, 1000ULL, 65'535ULL,
                                1ULL << 30, (1ULL << 40) + 12345ULL}) {
    const auto i = log_histogram::index_of(v);
    // v lands in bucket i: above the previous bucket's ceiling, at or below
    // its own.
    EXPECT_GE(log_histogram::bucket_hi(i), v) << v;
    EXPECT_LT(log_histogram::bucket_hi(i - 1), v) << v;
    // Log-linear error bound: the sub-bucket width is at most v / 2^sub_bits.
    EXPECT_LE(log_histogram::bucket_hi(i) - v, v / 32) << v;
  }
}

TEST(LogHistogram, HugeValuesLandInTopBucketAndStayFinite) {
  constexpr auto top = std::numeric_limits<std::uint64_t>::max();
  log_histogram h;
  h.add(top);
  EXPECT_EQ(log_histogram::index_of(top), log_histogram::max_buckets - 1);
  EXPECT_EQ(log_histogram::bucket_hi(log_histogram::max_buckets - 1), top);
  EXPECT_EQ(h.bucket_count(), 1u);
  EXPECT_EQ(h.quantile(0.5), top);
  EXPECT_DOUBLE_EQ(h.mean(), static_cast<double>(top));
}

TEST(LogHistogram, StorageSpansOnlyTheIndicesSeen) {
  log_histogram h;
  h.add(1000);
  EXPECT_EQ(h.bucket_count(), 1u);
  h.add(7);  // widens downward to the new lowest index
  EXPECT_EQ(h.bucket_count(), log_histogram::index_of(1000) - 7 + 1);
  h.add(500);  // inside the span: no growth
  EXPECT_EQ(h.bucket_count(), log_histogram::index_of(1000) - 7 + 1);
  const log_histogram::sparse_buckets expect = {
      {7, 1}, {log_histogram::index_of(500), 1}, {log_histogram::index_of(1000), 1}};
  EXPECT_EQ(h.sparse(), expect);
}

TEST(LogHistogram, QuantileClampsToObservedMax) {
  log_histogram h;
  h.add(1000);  // bucket ceiling is above 1000, but 1000 is the real max
  EXPECT_EQ(h.quantile(0.5), 1000u);
  EXPECT_EQ(h.quantile(1.0), 1000u);
}

void expect_same(const log_histogram& a, const log_histogram& b) {
  EXPECT_TRUE(a == b);  // buckets, count, 128-bit sum, min and max
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  for (const double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(a.quantile(q), b.quantile(q)) << q;
  }
}

TEST(LogHistogram, MergeMatchesSequentialAdds) {
  // Seeded per-group histograms: every permutation, folded left, folded right
  // and reduced pairwise, equals one histogram fed every sample in turn.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    sim::rng r(seed);
    std::vector<log_histogram> groups(2 + r.below(4));
    log_histogram reference;
    for (auto& g : groups) {
      // Some groups stay empty; the rest draw values across many octaves.
      const auto n = r.below(4) == 0 ? 0 : r.below(300);
      for (std::uint64_t i = 0; i < n; ++i) {
        const auto shift = r.below(64);
        const auto v = r() >> shift;
        const auto weight = 1 + r.below(3);
        g.add(v, weight);
        reference.add(v, weight);
      }
    }

    std::vector<std::size_t> order(groups.size());
    std::iota(order.begin(), order.end(), 0);
    do {
      log_histogram left;
      for (const auto i : order) left.merge(groups[i]);
      expect_same(left, reference);

      log_histogram right;
      for (auto it = order.rbegin(); it != order.rend(); ++it) {
        log_histogram acc = groups[*it];
        acc.merge(right);
        right = acc;
      }
      expect_same(right, reference);

      std::vector<log_histogram> level;
      for (const auto i : order) level.push_back(groups[i]);
      while (level.size() > 1) {
        std::vector<log_histogram> next;
        for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
          next.push_back(level[i]);
          next.back().merge(level[i + 1]);
        }
        if (level.size() % 2 != 0) next.push_back(level.back());
        level = std::move(next);
      }
      expect_same(level.front(), reference);
    } while (std::next_permutation(order.begin(), order.end()) &&
             !::testing::Test::HasFailure());
  }
}

TEST(LogHistogram, WeightedAddCountsEverySample) {
  log_histogram h;
  h.add(10, 7);
  h.add(1'000'000, 3);
  EXPECT_EQ(h.count(), 10u);
  EXPECT_EQ(h.quantile(0.5), 10u);
  EXPECT_GT(h.quantile(0.95), 900'000u);
}

TEST(LogHistogram, SumSurvivesPastUint64) {
  // v * count alone exceeds 2^64 here; a 64-bit sum would wrap and report a
  // tiny mean. The 128-bit accumulator keeps the mean exact.
  log_histogram h;
  const std::uint64_t v = 1ULL << 40;
  h.add(v, 1ULL << 25);  // v * count == 2^65
  EXPECT_DOUBLE_EQ(h.mean(), static_cast<double>(v));

  log_histogram other;
  other.add(v, 1ULL << 25);
  h.merge(other);
  EXPECT_DOUBLE_EQ(h.mean(), static_cast<double>(v));
}

TEST(LogHistogram, ResetClears) {
  log_histogram h;
  h.add(3);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.99), 0u);
  EXPECT_TRUE(h == log_histogram{});
}

}  // namespace
}  // namespace adx::obs
