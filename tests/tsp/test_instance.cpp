#include "tsp/instance.hpp"

#include <gtest/gtest.h>

#include <string>

namespace adx::tsp {
namespace {

TEST(Instance, RejectsTinyProblems) {
  EXPECT_THROW(instance(2, std::vector<std::int32_t>(4, 1)), std::invalid_argument);
}

TEST(Instance, RejectsSizeMismatch) {
  EXPECT_THROW(instance(4, std::vector<std::int32_t>(10, 1)), std::invalid_argument);
}

TEST(Instance, RejectsWeightsOutsideTheCellRange) {
  for (const std::int32_t w : {-1, -20, kMaxWeight + 1, std::int32_t{1} << 30}) {
    std::vector<std::int32_t> d(16, 7);
    d[1 * 4 + 2] = w;
    try {
      instance(4, std::move(d));
      FAIL() << "accepted weight " << w;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("(1, 2)"), std::string::npos) << e.what();
    }
  }
  // LMSK's reductions assume non-negative weights; such an instance used to
  // solve to "no tour" instead of failing.
  EXPECT_THROW((void)instance::random_asymmetric(8, 1, -20, 20), std::invalid_argument);
}

TEST(Instance, AcceptsTheWholeWeightRange) {
  std::vector<std::int32_t> d(9, kMaxWeight);
  d[1] = 0;
  const instance inst(3, std::move(d));
  EXPECT_EQ(inst.at(0, 1), 0);
  EXPECT_EQ(inst.at(1, 0), kMaxWeight);
}

TEST(Instance, RejectsMoreCitiesThanLabelsHold) {
  // Checked before any n x n matrix is built, so none is allocated here.
  try {
    instance(kMaxCities + 1, {});
    FAIL() << "accepted " << kMaxCities + 1 << " cities";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("cities"), std::string::npos) << e.what();
  }
  EXPECT_THROW((void)instance::random_asymmetric(kMaxCities + 1, 1), std::invalid_argument);
  EXPECT_THROW((void)instance::random_euclidean(kMaxCities + 1, 1), std::invalid_argument);
}

TEST(Instance, DiagonalForcedToInf) {
  // The diagonal is no weight: any value there is replaced, not checked.
  std::vector<std::int32_t> d(9, 5);
  d[0] = -1;
  d[4] = kMaxWeight + 1;
  auto inst = instance(3, std::move(d));
  for (int i = 0; i < 3; ++i) EXPECT_EQ(inst.at(i, i), kInf);
  EXPECT_EQ(inst.at(0, 1), 5);
}

TEST(Instance, RandomAsymmetricDeterministic) {
  const auto a = instance::random_asymmetric(10, 42);
  const auto b = instance::random_asymmetric(10, 42);
  EXPECT_EQ(a.data(), b.data());
  const auto c = instance::random_asymmetric(10, 43);
  EXPECT_NE(a.data(), c.data());
}

TEST(Instance, RandomAsymmetricInRange) {
  const auto inst = instance::random_asymmetric(12, 7, 5, 9);
  for (int i = 0; i < 12; ++i) {
    for (int j = 0; j < 12; ++j) {
      if (i == j) continue;
      EXPECT_GE(inst.at(i, j), 5);
      EXPECT_LE(inst.at(i, j), 9);
    }
  }
}

TEST(Instance, RandomAsymmetricIsActuallyAsymmetric) {
  const auto inst = instance::random_asymmetric(10, 1);
  bool asym = false;
  for (int i = 0; i < 10 && !asym; ++i) {
    for (int j = i + 1; j < 10; ++j) {
      if (inst.at(i, j) != inst.at(j, i)) {
        asym = true;
        break;
      }
    }
  }
  EXPECT_TRUE(asym);
}

TEST(Instance, EuclideanSymmetricAndTriangleFriendly) {
  const auto inst = instance::random_euclidean(8, 3);
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      if (i == j) continue;
      EXPECT_EQ(inst.at(i, j), inst.at(j, i));
      EXPECT_GE(inst.at(i, j), 1);
    }
  }
}

TEST(Instance, TourCostSumsCycle) {
  // 3-cycle with known weights.
  std::vector<std::int32_t> d = {0, 1, 9, 9, 0, 2, 3, 9, 0};
  instance inst(3, std::move(d));
  EXPECT_EQ(inst.tour_cost({0, 1, 2}), 1 + 2 + 3);
}

TEST(Instance, TourCostRejectsWrongLength) {
  const auto inst = instance::random_asymmetric(5, 1);
  EXPECT_THROW((void)inst.tour_cost({0, 1, 2}), std::invalid_argument);
}

}  // namespace
}  // namespace adx::tsp
