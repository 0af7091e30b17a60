#include "tsp/parallel.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace adx::tsp {
namespace {

parallel_config fast_cfg(variant v, locks::lock_kind k) {
  parallel_config cfg;
  cfg.impl = v;
  cfg.run.lock = k;
  cfg.processors = 6;
  cfg.cost = locks::lock_cost_model::fast_test();
  cfg.run.machine = sim::machine_config::test_machine(8);
  cfg.per_op_us = 0.2;  // keep virtual runs small for tests
  return cfg;
}

struct par_case {
  variant v;
  locks::lock_kind k;
};

class ParallelTsp : public testing::TestWithParam<par_case> {};

TEST_P(ParallelTsp, FindsTheOptimalTour) {
  const auto inst = instance::random_asymmetric(16, 31);
  const auto seq = solve_sequential(inst);
  const auto r = solve_parallel(inst, fast_cfg(GetParam().v, GetParam().k));
  ASSERT_TRUE(r.best.valid());
  EXPECT_EQ(r.best.cost, seq.best.cost);
  EXPECT_EQ(inst.tour_cost(r.best.order), r.best.cost);
}

TEST_P(ParallelTsp, Deterministic) {
  const auto inst = instance::random_asymmetric(14, 8);
  const auto a = solve_parallel(inst, fast_cfg(GetParam().v, GetParam().k));
  const auto b = solve_parallel(inst, fast_cfg(GetParam().v, GetParam().k));
  EXPECT_EQ(a.elapsed.ns, b.elapsed.ns);
  EXPECT_EQ(a.expansions, b.expansions);
  EXPECT_EQ(a.events, b.events);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariantsAndLocks, ParallelTsp,
    testing::Values(par_case{variant::centralized, locks::lock_kind::blocking},
                    par_case{variant::centralized, locks::lock_kind::adaptive},
                    par_case{variant::centralized, locks::lock_kind::spin},
                    par_case{variant::distributed, locks::lock_kind::blocking},
                    par_case{variant::distributed, locks::lock_kind::adaptive},
                    par_case{variant::distributed_lb, locks::lock_kind::blocking},
                    par_case{variant::distributed_lb, locks::lock_kind::adaptive}),
    [](const testing::TestParamInfo<par_case>& info) {
      std::string s = std::string(to_string(info.param.v)) + "_" +
                      locks::to_string(info.param.k);
      for (auto& c : s) {
        if (c == '-') c = '_';
      }
      return s;
    });

TEST(ParallelTsp, LockReportsCoverTheFourPaperLocks) {
  const auto inst = instance::random_asymmetric(12, 5);
  const auto r = solve_parallel(inst, fast_cfg(variant::centralized,
                                               locks::lock_kind::blocking));
  ASSERT_EQ(r.lock_reports.size(), 4u);
  EXPECT_EQ(r.lock_reports[0].name, "qlock");
  EXPECT_EQ(r.lock_reports[1].name, "glob-low-lock");
  EXPECT_EQ(r.lock_reports[2].name, "glob-act-lock");
  EXPECT_EQ(r.lock_reports[3].name, "globlock");
  EXPECT_GT(r.lock_reports[0].requests, 0u);
}

TEST(ParallelTsp, PatternsRecordedWhenRequested) {
  const auto inst = instance::random_asymmetric(14, 5);
  auto cfg = fast_cfg(variant::centralized, locks::lock_kind::blocking);
  cfg.record_patterns = true;
  const auto r = solve_parallel(inst, cfg);
  EXPECT_FALSE(r.qlock_pattern.empty());
  EXPECT_FALSE(r.act_pattern.empty());
}

TEST(ParallelTsp, PatternsEmptyByDefault) {
  const auto inst = instance::random_asymmetric(12, 5);
  const auto r = solve_parallel(inst, fast_cfg(variant::centralized,
                                               locks::lock_kind::blocking));
  EXPECT_TRUE(r.qlock_pattern.empty());
}

TEST(ParallelTsp, CentralizedQlockMoreContendedThanDistributed) {
  const auto inst = instance::random_asymmetric(18, 9001);
  auto central = fast_cfg(variant::centralized, locks::lock_kind::blocking);
  auto dist = fast_cfg(variant::distributed, locks::lock_kind::blocking);
  const auto rc = solve_parallel(inst, central);
  const auto rd = solve_parallel(inst, dist);
  EXPECT_GT(rc.lock_reports[0].contention_ratio, rd.lock_reports[0].contention_ratio);
}

TEST(ParallelTsp, DistributedVariantsSteal) {
  const auto inst = instance::random_asymmetric(16, 77);
  const auto rd =
      solve_parallel(inst, fast_cfg(variant::distributed, locks::lock_kind::blocking));
  const auto rlb = solve_parallel(
      inst, fast_cfg(variant::distributed_lb, locks::lock_kind::blocking));
  EXPECT_GT(rd.steals + rlb.steals, 0u);
}

TEST(ParallelTsp, SingleProcessorDegeneratesGracefully) {
  const auto inst = instance::random_asymmetric(12, 3);
  auto cfg = fast_cfg(variant::centralized, locks::lock_kind::blocking);
  cfg.processors = 1;
  const auto seq = solve_sequential(inst);
  const auto r = solve_parallel(inst, cfg);
  EXPECT_EQ(r.best.cost, seq.best.cost);
}

TEST(ParallelTsp, RejectsBadProcessorCount) {
  const auto inst = instance::random_asymmetric(12, 3);
  auto cfg = fast_cfg(variant::centralized, locks::lock_kind::blocking);
  cfg.processors = 0;
  EXPECT_THROW(solve_parallel(inst, cfg), std::invalid_argument);
  cfg.processors = 99;  // > machine nodes
  EXPECT_THROW(solve_parallel(inst, cfg), std::invalid_argument);
}

TEST(ParallelTsp, RejectsBadCostModel) {
  const auto inst = instance::random_asymmetric(8, 3);
  auto cfg = fast_cfg(variant::centralized, locks::lock_kind::blocking);
  cfg.data_word_divisor = 0;
  EXPECT_THROW((void)solve_parallel(inst, cfg), std::invalid_argument);
  cfg.data_word_divisor = 8;
  for (const double us : {-1.0, std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN()}) {
    cfg.per_op_us = us;
    EXPECT_THROW((void)solve_parallel(inst, cfg), std::invalid_argument) << us;
  }
  cfg.per_op_us = 0.0;  // free compute is a valid model
  EXPECT_TRUE(solve_parallel(inst, cfg).best.valid());
}

TEST(ParallelTsp, MoreProcessorsFinishSooner) {
  const auto inst = instance::random_asymmetric(18, 9001);
  auto one = fast_cfg(variant::centralized, locks::lock_kind::blocking);
  one.processors = 1;
  one.per_op_us = 3.0;  // enough work per node for parallelism to pay
  auto six = fast_cfg(variant::centralized, locks::lock_kind::blocking);
  six.processors = 6;
  six.per_op_us = 3.0;
  const auto r1 = solve_parallel(inst, one);
  const auto r6 = solve_parallel(inst, six);
  EXPECT_LT(r6.elapsed.ns, r1.elapsed.ns);
}

TEST(ParallelTsp, VariantNames) {
  EXPECT_STREQ(to_string(variant::centralized), "centralized");
  EXPECT_STREQ(to_string(variant::distributed), "distributed");
  EXPECT_STREQ(to_string(variant::distributed_lb), "distributed-lb");
}

}  // namespace
}  // namespace adx::tsp
