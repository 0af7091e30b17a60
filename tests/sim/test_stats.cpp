#include "sim/stats.hpp"

#include <gtest/gtest.h>

namespace adx::sim {
namespace {

TEST(Accumulator, EmptyIsZeroed) {
  accumulator a;
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.min(), 0.0);
  EXPECT_DOUBLE_EQ(a.max(), 0.0);
  EXPECT_DOUBLE_EQ(a.stddev(), 0.0);
}

TEST(Accumulator, SingleValue) {
  accumulator a;
  a.add(5.0);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  EXPECT_DOUBLE_EQ(a.min(), 5.0);
  EXPECT_DOUBLE_EQ(a.max(), 5.0);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);
}

TEST(Accumulator, MeanMinMaxSum) {
  accumulator a;
  for (double v : {1.0, 2.0, 3.0, 4.0}) a.add(v);
  EXPECT_DOUBLE_EQ(a.mean(), 2.5);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 4.0);
  EXPECT_DOUBLE_EQ(a.sum(), 10.0);
}

TEST(Accumulator, SampleVariance) {
  accumulator a;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) a.add(v);
  EXPECT_NEAR(a.variance(), 4.571428, 1e-5);  // n-1 denominator
}

TEST(Accumulator, NegativeValues) {
  accumulator a;
  a.add(-3.0);
  a.add(3.0);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.min(), -3.0);
}

TEST(Accumulator, ResetClears) {
  accumulator a;
  a.add(1.0);
  a.reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
}

}  // namespace
}  // namespace adx::sim
