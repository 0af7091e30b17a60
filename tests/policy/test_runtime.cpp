// The asynchronous policy runtime (policy::async_runtime) and the sync/async
// equivalence contract: under a fixed observation schedule the async path
// must deliver the SAME observation sequence to the policy core as the sync
// path — decisions are a pure function of that sequence, so the decision
// sequence is bit-identical; only *when* the work is charged differs.
#include "policy/runtime.hpp"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/adaptive.hpp"
#include "ct/federation.hpp"
#include "ct/runtime.hpp"
#include "exec/job_executor.hpp"
#include "locks/factory.hpp"
#include "locks/reconfigurable_lock.hpp"
#include "locks/run_config.hpp"
#include "objects/object_policy.hpp"
#include "policy/fed_coordinator.hpp"
#include "policy/registry.hpp"
#include "sim/event_domain.hpp"
#include "workload/cs_workload.hpp"

namespace adx::policy {
namespace {

// ----------------------------------------------------------- spec plumbing

TEST(AsyncSpec, DefaultJsonIsByteStable) {
  // The execution-mode keys must not leak into default specs: every replay
  // journal and committed baseline embeds this exact byte form.
  EXPECT_EQ(policy_spec{}.to_json(),
            "{\"name\":\"simple-adapt\",\"params\":{},\"sensors\":[],"
            "\"wrappers\":[]}");
  EXPECT_TRUE(policy_spec{}.is_default());
}

TEST(AsyncSpec, AsyncIsNeverDefault) {
  // Even async simple-adapt must route through the registry/engine so the
  // runtime has a queue to drain.
  EXPECT_FALSE(policy_spec{}.with_async().is_default());
  EXPECT_FALSE(policy_spec{}.with_coordinate().is_default());
}

TEST(AsyncSpec, RoundTripsThroughJson) {
  auto spec = policy_spec{}.with_name("break-even").with_async(120).with_coordinate();
  const auto text = spec.to_json();
  EXPECT_NE(text.find("\"mode\":\"async\""), std::string::npos);
  EXPECT_NE(text.find("\"period_us\":120"), std::string::npos);
  EXPECT_NE(text.find("\"coordinate\":true"), std::string::npos);
  EXPECT_EQ(policy_spec::from_json(text), spec);
}

TEST(AsyncSpec, DefaultPeriodOmittedFromJson) {
  auto spec = policy_spec{}.with_async();  // period stays kDefaultPeriodUs
  EXPECT_EQ(spec.to_json().find("period_us"), std::string::npos);
  EXPECT_EQ(policy_spec::from_json(spec.to_json()), spec);
}

TEST(AsyncSpec, ParseExecModeRejectsUnknown) {
  EXPECT_EQ(parse_exec_mode("sync"), exec_mode::sync);
  EXPECT_EQ(parse_exec_mode("async"), exec_mode::async);
  try {
    (void)parse_exec_mode("bogus");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "unknown mode: bogus (valid: sync async)");
  }
}

TEST(AsyncSpec, RunConfigCarriesAsyncObjectPolicy) {
  auto rc = run_config{}
                .with_object("hashmap")
                .with_object_policy(objects::default_map_spec().with_async(80));
  EXPECT_EQ(run_config::from_json(rc.to_json()), rc);
}

// ------------------------------------------------- sync/async equivalence

/// Records every delivered observation and decides by a fixed rule, so two
/// instances agree iff they saw the identical observation sequence.
class recording_policy final : public core::adaptation_policy {
 public:
  void observe(const core::observation& obs) override {
    log.push_back({std::string(obs.sensor), obs.value});
    if (obs.value >= 5) note_decision();
  }
  std::vector<std::pair<std::string, std::int64_t>> log;
};

TEST(AsyncRuntime, AsyncReproducesSyncDecisionSequence) {
  // Fixed schedule: both objects' sensors read the same script, advanced one
  // step per feedback point. The sync object runs its policy inline; the
  // async object queues and is pumped in batches (the daemon's ticks). The
  // delivered sequences — and therefore the decision sequence — must match
  // bit-for-bit.
  const std::vector<std::int64_t> script = {1, 4, 9, 2, 7, 7, 0, 5, 3, 8,
                                            6, 1, 9, 9, 2, 4, 5, 0, 7, 3};

  core::adaptive_object sync_obj("scripted");
  core::adaptive_object async_obj("scripted");
  std::size_t si = 0;
  std::size_t ai = 0;
  sync_obj.object_monitor().add_sensor(
      core::sensor("load", [&] { return script[si++ % script.size()]; }, 2));
  async_obj.object_monitor().add_sensor(
      core::sensor("load", [&] { return script[ai++ % script.size()]; }, 2));
  async_obj.object_monitor().set_mode(core::coupling::loosely_coupled);

  auto sp = std::make_shared<recording_policy>();
  auto ap = std::make_shared<recording_policy>();
  sync_obj.set_policy(sp);
  async_obj.set_policy(ap);

  std::size_t sync_delivered = 0;
  std::size_t async_inline = 0;
  for (int t = 0; t < 40; ++t) {
    sync_delivered += sync_obj.feedback_point();
    async_inline += async_obj.feedback_point();
    if (t % 5 == 4) async_obj.pump();  // the daemon's periodic tick
  }
  async_obj.pump();  // final drain

  EXPECT_GT(sync_delivered, 0u);
  // The zero-cost fast path: async feedback points deliver nothing inline.
  EXPECT_EQ(async_inline, 0u);
  EXPECT_EQ(ap->log, sp->log);
  EXPECT_EQ(ap->decisions(), sp->decisions());
}

TEST(AsyncRuntime, ReinstallClearsQueuedObservationsCleanly) {
  // clear_sensors() with a non-empty loose queue: re-installing a policy
  // mid-sampling must drop the stale observations with the old sensors —
  // the new policy starts from a clean slate, never seeing the old stream.
  core::adaptive_object obj("scripted");
  obj.object_monitor().set_mode(core::coupling::loosely_coupled);
  obj.object_monitor().add_sensor(core::sensor("stale", [] { return 9; }, 1));
  obj.feedback_point();
  obj.feedback_point();
  EXPECT_EQ(obj.object_monitor().backlog(), 2u);

  obj.object_monitor().clear_sensors();
  obj.object_monitor().add_sensor(core::sensor("fresh", [] { return 1; }, 1));
  auto p = std::make_shared<recording_policy>();
  obj.set_policy(p);

  EXPECT_EQ(obj.object_monitor().backlog(), 0u);
  EXPECT_EQ(obj.pump(), 0u);
  obj.feedback_point();
  EXPECT_EQ(obj.pump(), 1u);
  ASSERT_EQ(p->log.size(), 1u);
  EXPECT_EQ(p->log[0].first, "fresh");
}

// ---------------------------------------------------- workload end-to-end

workload::cs_config async_cs_config() {
  workload::cs_config cfg;
  cfg.processors = 4;
  cfg.threads = 8;
  cfg.iterations = 60;
  cfg.cs_length = sim::microseconds(40);
  cfg.think_time = sim::microseconds(60);
  cfg.kind = locks::lock_kind::adaptive;
  cfg.params.policy = policy::default_spec("break-even");
  cfg.params.policy.with_async(40);
  return cfg;
}

TEST(AsyncRuntime, DaemonDrainsAndWorkloadCompletes) {
  const auto cfg = async_cs_config();
  const auto res = workload::run_cs_workload(cfg);
  EXPECT_EQ(res.acquisitions, 8u * 60u);
  EXPECT_GT(res.policy_ticks, 0u);
  EXPECT_GT(res.policy_pumped, 0u);
}

TEST(AsyncRuntime, SyncModeNeverStartsTheDaemon) {
  auto cfg = async_cs_config();
  cfg.params.policy = policy::default_spec("break-even");  // sync again
  const auto res = workload::run_cs_workload(cfg);
  EXPECT_EQ(res.acquisitions, 8u * 60u);
  EXPECT_EQ(res.policy_ticks, 0u);
  EXPECT_EQ(res.policy_pumped, 0u);
}

TEST(AsyncRuntime, AsyncRunsAreBitReproducible) {
  // Daemon wakeups are ordinary simulator events at fixed virtual times, so
  // the whole run — including every daemon-side charge — replays exactly.
  const auto a = workload::run_cs_workload(async_cs_config());
  const auto b = workload::run_cs_workload(async_cs_config());
  EXPECT_EQ(a.elapsed.ns, b.elapsed.ns);
  EXPECT_EQ(a.acquisitions, b.acquisitions);
  EXPECT_EQ(a.spin_iterations, b.spin_iterations);
  EXPECT_EQ(a.policy_ticks, b.policy_ticks);
  EXPECT_EQ(a.policy_pumped, b.policy_pumped);
}

// ----------------------------------------------------------- coordinator

ct::task<void> hammer(ct::context& ctx, locks::lock_object& lk, int iters) {
  for (int i = 0; i < iters; ++i) {
    co_await lk.lock(ctx);
    co_await ctx.compute(sim::microseconds(3));
    co_await lk.unlock(ctx);
    co_await ctx.compute(sim::microseconds(2));
  }
}

/// What a federated demotion run must reproduce exactly.
struct fed_demotion {
  std::uint64_t issued{};
  std::uint64_t reports{};
  locks::waiting_policy busy_policy;
  locks::waiting_policy idle_policy;
  std::uint64_t busy_reconfigures{};
  std::uint64_t idle_reconfigures{};
  std::uint64_t busy_acquisitions{};
  sim::vtime end{};

  friend bool operator==(const fed_demotion&, const fed_demotion&) = default;
};

/// Two groups, one async coordinated adaptive lock each, every group's
/// daemon enrolled with one fed_coordinator. Group 0 hammers its lock in
/// bursts with pauses shorter than kIdleTicks ticks, so its reports go flat
/// again and again but never long enough; group 1 never touches its own
/// lock and only keeps a sleeper alive, so its daemon (which stops once it
/// is the last live thread) ticks long enough for the hub to see the lock
/// stay idle.
fed_demotion run_fed_demotion(unsigned shards, unsigned jobs) {
  auto mach = sim::machine_config::hierarchical_numa(2, 2);
  mach.context_switch = sim::microseconds(10);
  mach.dispatch_latency = sim::microseconds(2);
  auto dom = sim::make_event_domain(mach, {.shards = shards, .seed = 7});
  ct::federation fed(mach, *dom);
  fed_coordinator coord(fed);
  const auto cost = locks::lock_cost_model::fast_test();
  locks::lock_params params;
  params.policy.with_async(10).with_coordinate();

  std::array<std::unique_ptr<locks::lock_object>, 2> lk;
  std::array<std::unique_ptr<async_runtime>, 2> art;
  for (unsigned g = 0; g < 2; ++g) {
    lk[g] = locks::make_lock(locks::lock_kind::adaptive, 0, cost, params);
    lk[g]->bind_place(g);
    auto& rt = fed.group_runtime(g);
    if (g == 0) {
      rt.fork(0, [&lk](ct::context& ctx) -> ct::task<void> {
        for (int burst = 0; burst < 10; ++burst) {
          co_await hammer(ctx, *lk[0], 10);
          co_await ctx.sleep_for(sim::microseconds(25));
        }
      });
    } else {
      rt.fork(0, [](ct::context& ctx) -> ct::task<void> {
        co_await ctx.sleep_for(sim::microseconds(300));
      });
    }
    art[g] = std::make_unique<async_runtime>(
        runtime_config{.period = sim::microseconds(10), .proc = 1});
    EXPECT_TRUE(art[g]->adopt_lock(*lk[g], params, cost));
    coord.attach(g, *art[g]);
    art[g]->start(rt);
  }

  exec::job_executor ex(jobs);
  const auto r = fed.run_all(jobs > 1 ? &ex : nullptr);
  EXPECT_TRUE(r.completed);
  auto* busy = dynamic_cast<locks::adaptive_lock*>(lk[0].get());
  auto* idle = dynamic_cast<locks::adaptive_lock*>(lk[1].get());
  EXPECT_NE(busy, nullptr);
  EXPECT_NE(idle, nullptr);
  if (busy == nullptr || idle == nullptr) return {};
  return {coord.demotions_issued(),
          coord.reports(),
          busy->current_policy(),
          idle->current_policy(),
          busy->stats().reconfigures(),
          idle->stats().reconfigures(),
          busy->stats().acquisitions(),
          r.end_time};
}

TEST(FedCoordinator, DemotesOnlyTheIdleGroupsLock) {
  const auto ref = run_fed_demotion(1, 1);
  // The idle lock's count stayed flat for kIdleTicks reports: the hub
  // demoted it to the cheap spin policy, visibly and exactly once.
  EXPECT_EQ(ref.issued, 1u);
  EXPECT_GE(ref.reports, 2 * fed_coordinator::kIdleTicks);
  EXPECT_EQ(ref.idle_policy, locks::waiting_policy::pure_spin(16));
  EXPECT_EQ(ref.idle_reconfigures, 1u);
  // The one demotion went to the idle lock: the busy lock's flat streaks
  // were all cut short by activity.
  EXPECT_EQ(ref.busy_acquisitions, 100u);
  EXPECT_NE(ref.busy_policy, fed_coordinator::kIdlePolicy);
  for (unsigned shards : {1u, 2u}) {
    for (unsigned jobs : {1u, 2u}) {
      EXPECT_EQ(run_fed_demotion(shards, jobs), ref)
          << "shards=" << shards << " jobs=" << jobs;
    }
  }
}

TEST(AsyncRuntime, AdoptRejectsSyncSpecsAndNonAdaptiveLocks) {
  const auto cost = locks::lock_cost_model::fast_test();
  locks::lock_params sync_params;  // default spec: sync
  auto lk = locks::make_lock(locks::lock_kind::adaptive, 0, cost, sync_params);
  policy::async_runtime art;
  EXPECT_FALSE(art.adopt_lock(*lk, sync_params, cost));

  locks::lock_params async_params;
  async_params.policy.with_async();
  auto plain = locks::make_lock(locks::lock_kind::spin, 0, cost, async_params);
  EXPECT_FALSE(art.adopt_lock(*plain, async_params, cost));
  EXPECT_EQ(art.registrations(), 0u);
}

}  // namespace
}  // namespace adx::policy
