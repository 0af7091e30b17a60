#include "locks/run_config.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>

#include "policy/registry.hpp"

namespace adx {
namespace {

TEST(RunConfig, DefaultRoundTripsThroughJson) {
  const run_config rc{};
  EXPECT_EQ(run_config::from_json(rc.to_json()), rc);
}

TEST(RunConfig, CustomizedConfigRoundTripsThroughJson) {
  auto rc = run_config{}
                .with_machine(sim::machine_config::test_machine(4))
                .with_lock(locks::lock_kind::adaptive)
                .with_policy(locks::waiting_policy::pure_spin(32))
                .with_grant_mode(1)
                .with_perturb(sim::perturb_profile::chaos())
                .with_seed(42);
  rc.machine.wire_model = sim::interconnect_model::butterfly;
  rc.params.combined_spin_limit = 17;
  rc.params.adapt = {12, 20, 400, 2};
  EXPECT_EQ(run_config::from_json(rc.to_json()), rc);
}

TEST(RunConfig, EveryRegisteredPolicySpecRoundTripsThroughJson) {
  for (const auto name : policy::all_policy_names()) {
    auto rc = run_config{}.with_lock(locks::lock_kind::adaptive);
    rc.params.policy = policy::default_spec(name, 3);
    EXPECT_EQ(run_config::from_json(rc.to_json()), rc) << name;
  }
}

TEST(RunConfig, WrappedPolicySpecRoundTripsThroughJson) {
  auto rc = run_config{}.with_lock(locks::lock_kind::adaptive);
  rc.params.policy = policy::default_spec("break-even")
                         .with_param("break_even_us", 120.25)
                         .with_hysteresis(3)
                         .with_deadband(16)
                         .with_cooldown(6);
  const auto back = run_config::from_json(rc.to_json());
  EXPECT_EQ(back, rc);
  EXPECT_EQ(back.params.policy.params.at("break_even_us"), 120.25);
  ASSERT_EQ(back.params.policy.wrappers.size(), 3u);
  EXPECT_EQ(back.params.policy.wrappers[1].kind, "deadband");
}

TEST(RunConfig, ConfigsWithoutAPolicyKeyStayOnTheDefault) {
  // Pre-engine configs (and hand-written ones) omit "policy" entirely.
  const auto rc = run_config::from_json(R"({"lock": "adaptive"})");
  EXPECT_TRUE(rc.params.policy.is_default());
}

TEST(RunConfig, EveryPresetProfileRoundTrips) {
  for (const auto& p :
       {sim::perturb_profile::none(), sim::perturb_profile::ties(),
        sim::perturb_profile::delay(), sim::perturb_profile::preempt(),
        sim::perturb_profile::latency(), sim::perturb_profile::chaos()}) {
    const auto rc = run_config{}.with_perturb(p);
    EXPECT_EQ(run_config::from_json(rc.to_json()).perturb, p) << to_string(p);
  }
}

TEST(RunConfig, EffectiveMachineAppliesTheRunSeed) {
  auto rc = run_config{}.with_machine(sim::machine_config::test_machine(4));
  const auto base_seed = rc.machine.seed;
  EXPECT_EQ(rc.effective_machine().seed, base_seed);  // seed 0: keep as-is
  rc.with_seed(777);
  EXPECT_EQ(rc.effective_machine().seed, 777u);
  EXPECT_EQ(rc.machine.seed, base_seed);  // the stored config is untouched
}

TEST(RunConfig, MissingKeysKeepTheirDefaults) {
  const auto rc = run_config::from_json(R"({"seed": 9})");
  EXPECT_EQ(rc.seed, 9u);
  EXPECT_EQ(rc.lock, locks::lock_kind::spin);  // default preserved
}

TEST(RunConfig, UnknownTopLevelKeysAreRejected) {
  // A removed or misspelled knob must fail, not run silently without it.
  const std::pair<const char*, const char*> cases[] = {
      {R"({"adaptive_lookahead":true})", "adaptive_lookahead"},
      {R"({"seed": 9, "future_key": [1, 2]})", "future_key"}};
  for (const auto& [json, key] : cases) {
    try {
      (void)run_config::from_json(json);
      FAIL() << "expected std::invalid_argument for " << json;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << e.what();
    }
  }
}

/// Expects from_json(json) to throw std::invalid_argument naming `path` as
/// the unknown key.
void expect_unknown_key(const char* json, const std::string& path) {
  try {
    (void)run_config::from_json(json);
    ADD_FAILURE() << "expected std::invalid_argument for " << json;
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "run_config: unknown key: " + path);
  }
}

TEST(RunConfig, UnknownMachineKeysAreRejected) {
  expect_unknown_key(R"({"machine":{"nodes":4,"nodez":4}})", "machine.nodez");
  // group keys are known under every wire model, as from_json reads them so.
  EXPECT_EQ(run_config::from_json(R"({"machine":{"group_size":2}})").machine.group_size, 2u);
}

TEST(RunConfig, UnknownParamsKeysAreRejected) {
  expect_unknown_key(R"({"params":{"grant_mod":1}})", "params.grant_mod");
}

TEST(RunConfig, UnknownInitialPolicyKeysAreRejected) {
  expect_unknown_key(R"({"params":{"initial_policy":{"spin_time":3,"spin_tim":3}}})",
                     "params.initial_policy.spin_tim");
}

TEST(RunConfig, UnknownAdaptKeysAreRejected) {
  expect_unknown_key(R"({"params":{"adapt":{"N":3}}})", "params.adapt.N");
}

TEST(RunConfig, UnknownPerturbKeysAreRejected) {
  expect_unknown_key(R"({"perturb":{"delay_pcts":50}})", "perturb.delay_pcts");
}

TEST(RunConfig, EveryNestedKeyToJsonPrintsIsAccepted) {
  // The hierarchical model prints the group keys too.
  run_config rc;
  rc.with_perturb(sim::perturb_profile::chaos());
  rc.machine.wire_model = sim::interconnect_model::hierarchical;
  rc.machine.group_size = 4;
  EXPECT_EQ(run_config::from_json(rc.to_json()), rc);
}

TEST(RunConfig, MalformedJsonThrows) {
  EXPECT_THROW((void)run_config::from_json("not json"), std::invalid_argument);
  EXPECT_THROW((void)run_config::from_json("{\"seed\": }"), std::invalid_argument);
}

TEST(RunConfig, RejectsZeroGroupSize) {
  // group_size feeds machine_config::group_of()/groups() as a divisor, and
  // shards sizes the execution domain; zero must be rejected at the parse
  // boundary, not crash the first model query or the domain factory.
  for (const char* bad : {R"({"machine": {"group_size": 0}})", R"({"shards": 0})"}) {
    EXPECT_THROW((void)run_config::from_json(bad), std::invalid_argument) << bad;
  }
  const auto rc = run_config::from_json(R"({"machine": {"group_size": 4}})");
  EXPECT_EQ(rc.machine.group_size, 4u);
}

TEST(RunConfig, RejectsABadEwmaAlphaInTheLockPolicy) {
  auto rc = run_config{}.with_lock(locks::lock_kind::adaptive);
  rc.params.policy = policy::default_spec("ewma-hold");
  auto json = rc.to_json();
  const std::string good = "\"ewma_alpha\":0.25";
  const auto at = json.find(good);
  ASSERT_NE(at, std::string::npos) << json;
  json.replace(at, good.size(), "\"ewma_alpha\":2");
  try {
    (void)run_config::from_json(json);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("ewma_alpha"), std::string::npos) << e.what();
  }
}

TEST(RunConfig, AKnobOutsideItsIntegerRangeFailsAtLockConstruction) {
  // The JSON carries the knob as a number; the lock that would truncate it
  // to int64 rejects it, naming it.
  auto rc = run_config{}.with_lock(locks::lock_kind::adaptive);
  rc.params.policy = policy::policy_spec{}.with_param("waiting_threshold", 1e300);
  const auto back = run_config::from_json(rc.to_json());
  EXPECT_EQ(back, rc);
  try {
    (void)locks::make_lock(back, 0, locks::lock_cost_model::fast_test());
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("waiting_threshold"), std::string::npos) << e.what();
  }
}

TEST(RunConfig, FluentBuilderSetsEveryField) {
  const auto rc = run_config{}
                      .with_nodes(6)
                      .with_lock(locks::lock_kind::combined)
                      .with_grant_mode(1)
                      .with_perturb(sim::perturb_profile::preempt())
                      .with_seed(5);
  EXPECT_EQ(rc.machine.nodes, 6u);
  EXPECT_EQ(rc.lock, locks::lock_kind::combined);
  EXPECT_EQ(rc.params.grant_mode, 1);
  EXPECT_EQ(rc.perturb, sim::perturb_profile::preempt());
  EXPECT_EQ(rc.seed, 5u);
}

TEST(RunConfig, ObjectAxisRoundTripsThroughJson) {
  auto spec = policy::policy_spec{}.with_name("stripe-adapt").with_param("load-grow", 120);
  const auto rc = run_config{}.with_object("hashmap").with_object_policy(spec).with_seed(3);
  const auto back = run_config::from_json(rc.to_json());
  EXPECT_EQ(back, rc);
  EXPECT_EQ(back.object, "hashmap");
  EXPECT_EQ(back.object_policy.name, "stripe-adapt");
  EXPECT_EQ(back.object_policy.params.at("load-grow"), 120.0);
}

TEST(RunConfig, ObjectAxisIsOmittedFromPureLockConfigs) {
  const auto rc = run_config{};
  const auto text = rc.to_json();
  EXPECT_EQ(text.find("\"object\""), std::string::npos) << text;
  EXPECT_EQ(text.find("\"object_policy\""), std::string::npos) << text;
  const auto back = run_config::from_json(text);
  EXPECT_TRUE(back.object.empty());
  EXPECT_TRUE(back.object_policy.is_default());
}

TEST(RunConfig, ShardsRoundTripAndDefaultOmission) {
  // shards == 1 (the default) must not appear: pre-sharding configs and
  // replay journals stay byte-stable.
  const auto plain = run_config{}.to_json();
  EXPECT_EQ(plain.find("\"shards\""), std::string::npos) << plain;

  const auto rc = run_config{}.with_shards(8);
  const auto text = rc.to_json();
  EXPECT_NE(text.find("\"shards\":8"), std::string::npos) << text;
  const auto back = run_config::from_json(text);
  EXPECT_EQ(back, rc);
  EXPECT_EQ(back.shards, 8u);
}

TEST(RunConfig, DomainOptionsMirrorTheExecutionKnobs) {
  const auto rc = run_config{}.with_shards(4);
  const auto opt = rc.domain_options();
  EXPECT_EQ(opt.shards, 4u);
  EXPECT_EQ(opt.seed, rc.machine.seed);
  EXPECT_EQ(run_config{}.with_seed(9).domain_options().seed, 9u);
}

TEST(RunConfig, HierarchicalMachineRoundTripsThroughJson) {
  // Group keys are emitted only under the hierarchical wire model.
  const auto plain = run_config{}.to_json();
  EXPECT_EQ(plain.find("\"group_size\""), std::string::npos) << plain;
  EXPECT_EQ(plain.find("\"group_wire_ns\""), std::string::npos) << plain;

  auto rc = run_config{}.with_machine(sim::machine_config::hierarchical_numa(4, 4));
  rc.machine.group_wire = sim::microseconds(0.9);
  const auto text = rc.to_json();
  EXPECT_NE(text.find("\"group_size\":4"), std::string::npos) << text;
  const auto back = run_config::from_json(text);
  EXPECT_EQ(back, rc);
  EXPECT_EQ(back.machine.group_size, 4u);
  EXPECT_EQ(back.machine.group_wire.ns, sim::microseconds(0.9).ns);
}

}  // namespace
}  // namespace adx
