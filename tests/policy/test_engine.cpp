#include "policy/engine.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "policy/registry.hpp"
#include "workload/cs_workload.hpp"

namespace adx::policy {
namespace {

using locks::waiting_policy;

locks::lock_cost_model cost() { return locks::lock_cost_model::fast_test(); }

// ------------------------------------------------------------- combinators

/// A core that always wants the configuration it was told to want.
class fixed_core final : public decision_core {
 public:
  explicit fixed_core(std::optional<waiting_policy> want) : want_(want) {}
  [[nodiscard]] std::string_view name() const override { return "fixed"; }
  std::optional<waiting_policy> decide(const core::observation& obs,
                                       const waiting_policy&) override {
    seen.push_back(obs.value);
    ++calls;
    return want_;
  }
  void notify_applied() override { ++applied; }

  std::optional<waiting_policy> want_;
  std::vector<std::int64_t> seen;
  int calls{0};
  int applied{0};
};

const core::observation kObs{"no-of-waiting-threads", 1};

TEST(Hysteresis, PassesOnlyAfterKConsecutiveIdenticalDecisions) {
  auto inner = std::make_unique<fixed_core>(waiting_policy::pure_sleep());
  auto* raw = inner.get();
  auto h = wrap_hysteresis(std::move(inner), 3);
  EXPECT_EQ(h->decide(kObs, {}), std::nullopt);
  EXPECT_EQ(h->decide(kObs, {}), std::nullopt);
  EXPECT_EQ(h->decide(kObs, {}), waiting_policy::pure_sleep());
  // The streak resets after a pass-through.
  EXPECT_EQ(h->decide(kObs, {}), std::nullopt);
  // notify_applied reaches the inner core.
  h->notify_applied();
  EXPECT_EQ(raw->applied, 1);
}

TEST(Hysteresis, ChangedDesireRestartsTheStreak) {
  auto inner = std::make_unique<fixed_core>(waiting_policy::mixed(10));
  auto* raw = inner.get();
  auto h = wrap_hysteresis(std::move(inner), 2);
  EXPECT_EQ(h->decide(kObs, {}), std::nullopt);
  raw->want_ = waiting_policy::mixed(20);  // inner changes its mind
  EXPECT_EQ(h->decide(kObs, {}), std::nullopt);
  EXPECT_EQ(h->decide(kObs, {}), waiting_policy::mixed(20));
}

TEST(Deadband, SuppressesSmallSameShapeSpinDeltas) {
  auto d = wrap_deadband(std::make_unique<fixed_core>(waiting_policy::mixed(14)), 8);
  // Current mixed(10): |14-10| = 4 < 8 — suppressed.
  EXPECT_EQ(d->decide(kObs, waiting_policy::mixed(10)), std::nullopt);
  // Current mixed(2): |14-2| = 12 >= 8 — passes.
  EXPECT_EQ(d->decide(kObs, waiting_policy::mixed(2)), waiting_policy::mixed(14));
}

TEST(Deadband, ShapeChangesAlwaysPass) {
  auto d = wrap_deadband(std::make_unique<fixed_core>(waiting_policy::pure_sleep()), 1000);
  EXPECT_EQ(d->decide(kObs, waiting_policy::mixed(10)),
            waiting_policy::pure_sleep());
}

TEST(Cooldown, SuppressesDecisionsAfterAnAppliedPsi) {
  auto c = wrap_cooldown(std::make_unique<fixed_core>(waiting_policy::pure_sleep()), 2);
  EXPECT_EQ(c->decide(kObs, {}), waiting_policy::pure_sleep());
  c->notify_applied();
  EXPECT_EQ(c->decide(kObs, {}), std::nullopt);
  EXPECT_EQ(c->decide(kObs, {}), std::nullopt);
  EXPECT_EQ(c->decide(kObs, {}), waiting_policy::pure_sleep());
}

// ------------------------------------------------------------------ engine

/// A reconfigurable lock whose monitor carries one hand-set
/// `no-of-waiting-threads` sensor, driven by an engine around `core`.
struct driven_lock {
  explicit driven_lock(std::unique_ptr<decision_core> core,
                       waiting_policy initial = waiting_policy::mixed(30),
                       core::sensor_aggregation agg = {})
      : lk(0, cost(), initial) {
    lk.object_monitor().add_sensor(
        core::sensor("no-of-waiting-threads", [this] { return waiting; }, 1), agg);
    auto e = std::make_shared<engine>(lk, "fixed", std::move(core));
    eng = e.get();
    lk.set_policy(std::move(e));
  }
  /// One feedback point with `w` waiters.
  void sample(std::int64_t w) {
    waiting = w;
    lk.feedback_point();
  }

  locks::reconfigurable_lock lk;
  std::int64_t waiting{0};
  engine* eng{nullptr};
};

TEST(Engine, AppliesDecisionsAndRecordsThem) {
  driven_lock d(std::make_unique<fixed_core>(waiting_policy::pure_sleep()));
  d.sample(6);
  EXPECT_TRUE(d.lk.current_policy().is_pure_sleep());
  EXPECT_EQ(d.eng->policy_name(), "fixed");
  EXPECT_EQ(d.eng->decisions(), 1u);
  EXPECT_EQ(d.eng->last_decision().sensor_value, 6);
  EXPECT_EQ(d.eng->last_decision().applied, waiting_policy::pure_sleep());
  EXPECT_EQ(d.eng->last_decision().sensors, "no-of-waiting-threads=6");
}

TEST(Engine, SkipsNoopDecisions) {
  driven_lock d(std::make_unique<fixed_core>(waiting_policy::pure_sleep()),
                waiting_policy::pure_sleep());
  d.sample(2);
  EXPECT_EQ(d.eng->decisions(), 0u);  // desired == current: no Ψ, no record
}

TEST(Engine, AggregatesPerSensorBeforeDeciding) {
  // The monitor folds each sample before the core sees it, and the decision
  // record renders the folded sensor vector.
  auto core = std::make_unique<fixed_core>(std::nullopt);
  auto* raw = core.get();
  driven_lock d(std::move(core), waiting_policy::mixed(30),
                core::sensor_aggregation::max_in_window(2));
  d.sample(9);
  d.sample(1);
  d.sample(2);
  EXPECT_EQ(raw->seen, (std::vector<std::int64_t>{9, 9, 2}));
  raw->want_ = waiting_policy::pure_sleep();
  d.sample(0);
  EXPECT_EQ(d.eng->last_decision().sensor_value, 2);
  EXPECT_EQ(d.eng->last_decision().sensors, "no-of-waiting-threads=2");
}

// The registry-built simple-adapt, pinned to the figures the lock's former
// hand-written simple-adapt produced on this workload: same decisions, same
// costs, same elapsed virtual time. An explicit one-sensor spec routes the
// same policy and must match too.
constexpr std::int64_t kBuiltinElapsedNs = 31'895'125;
constexpr std::uint64_t kBuiltinAcquisitions = 320;
constexpr std::uint64_t kBuiltinContended = 319;
constexpr std::uint64_t kBuiltinBlocks = 319;

TEST(Engine, RegistryBuiltSimpleAdaptMatchesBuiltinBitExactly) {
  const auto run = [](bool explicit_sensor) {
    workload::cs_config c;
    c.processors = 4;
    c.threads = 8;
    c.iterations = 40;
    c.cs_length = sim::microseconds(80);
    c.think_time = sim::microseconds(150);
    c.kind = locks::lock_kind::adaptive;
    c.cost = locks::lock_cost_model::fast_test();
    c.machine = sim::machine_config::test_machine(4);
    if (explicit_sensor) {
      sensor_spec waiting;
      waiting.period = c.params.adapt.sample_period;
      c.params.policy = policy_spec{}.with_sensor(waiting);
    }
    return run_cs_workload(c);
  };
  for (const bool explicit_sensor : {false, true}) {
    const auto r = run(explicit_sensor);
    EXPECT_EQ(r.elapsed.ns, kBuiltinElapsedNs) << explicit_sensor;
    EXPECT_EQ(r.acquisitions, kBuiltinAcquisitions) << explicit_sensor;
    EXPECT_EQ(r.contended, kBuiltinContended) << explicit_sensor;
    EXPECT_EQ(r.blocks, kBuiltinBlocks) << explicit_sensor;
  }
}

}  // namespace
}  // namespace adx::policy
