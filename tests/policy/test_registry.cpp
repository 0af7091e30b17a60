#include "policy/registry.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "locks/factory.hpp"
#include "policy/engine.hpp"
#include "policy/policies.hpp"

namespace adx::policy {
namespace {

locks::lock_cost_model cost() { return locks::lock_cost_model::fast_test(); }

TEST(Registry, ListsTheFourBuiltinPolicies) {
  const auto names = all_policy_names();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "simple-adapt");
  EXPECT_EQ(names[1], "break-even");
  EXPECT_EQ(names[2], "ewma-hold");
  EXPECT_EQ(names[3], "multi-sensor");
  for (const auto& info : all_policies()) {
    EXPECT_FALSE(info.description.empty()) << info.name;
  }
}

TEST(Registry, ParseErrorListsTheValidPolicies) {
  try {
    (void)parse_policy_name("fancy-adapt");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("fancy-adapt"), std::string::npos);
    for (const auto name : all_policy_names()) {
      EXPECT_NE(msg.find(std::string(name)), std::string::npos) << name;
    }
  }
}

TEST(Registry, DefaultSpecOfSimpleAdaptIsTheDefault) {
  // Empty sensors: the lock samples at its own adapt.sample_period.
  EXPECT_TRUE(default_spec("simple-adapt").is_default());
}

TEST(Registry, DefaultSpecCoversTheObjectFamilies) {
  EXPECT_EQ(default_spec("stripe-adapt").sensors.size(), 3u);
  EXPECT_EQ(default_spec("mode-adapt").sensors.size(), 3u);
  EXPECT_THROW((void)default_spec("fancy-adapt"), std::invalid_argument);
}

TEST(Registry, DefaultSpecsCarryTheirSensors) {
  const auto be = default_spec("break-even", 4);
  ASSERT_EQ(be.sensors.size(), 2u);
  EXPECT_EQ(be.sensors[0].name, "no-of-waiting-threads");
  EXPECT_EQ(be.sensors[0].period, 4u);
  EXPECT_EQ(be.sensors[0].agg, aggregation::last_value);
  EXPECT_EQ(be.sensors[1].name, "lock-hold-time");
  EXPECT_EQ(be.sensors[1].agg, aggregation::ewma);

  const auto eh = default_spec("ewma-hold");
  ASSERT_EQ(eh.sensors.size(), 1u);
  EXPECT_EQ(eh.sensors[0].name, "lock-hold-time");
}

TEST(Registry, InstallReplacesSensorsAndPolicy) {
  locks::adaptive_lock lk(0, cost());
  locks::lock_params params;
  params.policy = default_spec("break-even");
  install(lk, params, cost());
  ASSERT_EQ(lk.object_monitor().sensor_count(), 2u);
  EXPECT_EQ(lk.object_monitor().sensor_at(0).name(), "no-of-waiting-threads");
  EXPECT_EQ(lk.object_monitor().sensor_at(1).name(), "lock-hold-time");
  EXPECT_EQ(lk.engine().policy_name(), "break-even");
  EXPECT_EQ(lk.policy(), &lk.engine());
}

TEST(Registry, InstallAppliesWrappersOutermostFirst) {
  locks::adaptive_lock lk(0, cost());
  locks::lock_params params;
  params.policy = default_spec("ewma-hold").with_hysteresis(2).with_cooldown(3);
  install(lk, params, cost());
  // Wrapper names accumulate inside-out: cooldown is innermost-applied last
  // in the list, so the full name reads core+cooldown+hysteresis.
  EXPECT_EQ(lk.engine().policy_name(), "ewma-hold+cooldown+hysteresis");
}

TEST(Registry, InstallRejectsUnknownPolicy) {
  locks::adaptive_lock lk(0, cost());
  locks::lock_params params;
  params.policy.name = "fancy-adapt";
  EXPECT_THROW(install(lk, params, cost()), std::invalid_argument);
  // The constructor installs through the same path.
  EXPECT_THROW(locks::adaptive_lock(0, cost(), {}, locks::waiting_policy::mixed(10),
                                    params.policy),
               std::invalid_argument);
}

TEST(Registry, InstallRejectsASensorNamedTwice) {
  // Two entries for one sensor used to feed both samples into the first
  // entry's fold and report the second as 0.
  locks::adaptive_lock lk(0, cost());
  sensor_spec hold;
  hold.name = "lock-hold-time";
  hold.agg = aggregation::ewma;
  locks::lock_params params;
  params.policy =
      policy_spec{}.with_name("break-even").with_sensor({}).with_sensor(hold).with_sensor(hold);
  try {
    install(lk, params, cost());
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("sensors"), std::string::npos) << msg;
    EXPECT_NE(msg.find("lock-hold-time"), std::string::npos) << msg;
  }
  // Validation runs first: the lock keeps its monitor and its policy.
  ASSERT_EQ(lk.object_monitor().sensor_count(), 1u);
  EXPECT_EQ(lk.engine().policy_name(), "simple-adapt");
}

TEST(Registry, MakeLockRoutesNonDefaultSpecsThroughTheEngine) {
  locks::lock_params params;
  params.policy = default_spec("multi-sensor");
  const auto lk = locks::make_lock(locks::lock_kind::adaptive, 0, cost(), params);
  auto* al = dynamic_cast<locks::adaptive_lock*>(lk.get());
  ASSERT_NE(al, nullptr);
  EXPECT_EQ(al->engine().policy_name(), "multi-sensor");
  EXPECT_EQ(al->object_monitor().sensor_count(), 2u);
}

TEST(Registry, MakeLockDefaultSpecRunsTheRegistrySimpleAdapt) {
  locks::lock_params params;
  params.adapt.sample_period = 3;
  const auto lk = locks::make_lock(locks::lock_kind::adaptive, 0, cost(), params);
  auto* al = dynamic_cast<locks::adaptive_lock*>(lk.get());
  ASSERT_NE(al, nullptr);
  EXPECT_EQ(al->engine().policy_name(), "simple-adapt");
  const auto& m = al->object_monitor();
  ASSERT_EQ(m.sensor_count(), 1u);
  EXPECT_EQ(m.sensor_at(0).name(), "no-of-waiting-threads");
  EXPECT_EQ(m.sensor_at(0).period(), 3u);
}

/// Constructs an adaptive lock running `spec`; returns what the rejection
/// said, or "" if the lock was built.
std::string construction_error(const policy_spec& spec) {
  locks::lock_params params;
  params.policy = spec;
  try {
    (void)locks::make_lock(locks::lock_kind::adaptive, 0, cost(), params);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Registry, LockRejectsAKnobOutsideItsIntegerRange) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // spin_cap is a count in every core.
  for (const auto name : all_policy_names()) {
    for (const double bad : {1e300, -1e300, nan, inf, -inf, 0x1p63, -1.0}) {
      const auto msg = construction_error(default_spec(name).with_param("spin_cap", bad));
      EXPECT_NE(msg.find("spin_cap"), std::string::npos) << name << " spin_cap=" << bad;
    }
  }
  for (const std::string name : {"simple-adapt", "multi-sensor"}) {
    for (const double bad : {1e300, -1e300, nan, inf}) {
      const auto msg = construction_error(default_spec(name).with_param("waiting_threshold", bad));
      EXPECT_NE(msg.find("waiting_threshold"), std::string::npos) << name << " " << bad;
    }
  }
  EXPECT_NE(construction_error(default_spec("simple-adapt").with_param("n", 1e19)).find("n = "),
            std::string::npos);
}

TEST(Registry, LockAcceptsKnobsAtTheEdgesOfTheirRange) {
  EXPECT_EQ(construction_error(default_spec("simple-adapt")
                                   .with_param("spin_cap", 0)
                                   .with_param("waiting_threshold", -5)
                                   .with_param("n", 0x1p62)),
            "");
  EXPECT_EQ(construction_error(default_spec("ewma-hold").with_param("spin_cap", 0x1p63 - 1024)),
            "");
}

TEST(Registry, KnobsTruncateAndCheckTheirTargetRange) {
  const auto spec = policy_spec{}
                        .with_param("a", 2.9)
                        .with_param("b", -2.9)
                        .with_param("c", -0.5)
                        .with_param("big", 0x1p64)
                        .with_param("nan", std::nan(""));
  EXPECT_EQ(int_knob(spec, "a", 7), 2);
  EXPECT_EQ(int_knob(spec, "b", 7), -2);
  EXPECT_EQ(int_knob(spec, "absent", 7), 7);
  EXPECT_THROW((void)int_knob(spec, "b", 7, 0), std::invalid_argument);
  EXPECT_THROW((void)int_knob(spec, "big", 7), std::invalid_argument);
  EXPECT_THROW((void)int_knob(spec, "nan", 7), std::invalid_argument);
  // Counts (spin_cap, confirm, cooldown) are read with lo = 0.
  for (const char* bad : {"b", "c", "big", "nan"}) {
    try {
      (void)int_knob(spec, bad, 7, 0);
      ADD_FAILURE() << bad << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("knob ") + bad + " = "), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace adx::policy
