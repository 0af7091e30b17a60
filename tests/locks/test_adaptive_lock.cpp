#include "locks/adaptive_lock.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ct/context.hpp"
#include "obs/tracer.hpp"
#include "policy/engine.hpp"

namespace adx::locks {
namespace {

sim::machine_config mc(unsigned nodes = 4) { return sim::machine_config::test_machine(nodes); }
lock_cost_model cost() { return lock_cost_model::fast_test(); }

TEST(AdaptiveLock, HasWaitingThreadsSensor) {
  adaptive_lock lk(0, cost());
  ASSERT_EQ(lk.object_monitor().sensor_count(), 1u);
  EXPECT_EQ(lk.object_monitor().sensor_at(0).name(), "no-of-waiting-threads");
  EXPECT_EQ(lk.object_monitor().sensor_at(0).period(), 2u);
  EXPECT_NE(lk.policy(), nullptr);
}

TEST(AdaptiveLock, NoContentionConfiguresPureSpin) {
  // "The lock adaptation policy identifies such no-contention locks and
  //  configures them to low-latency spin-locks."
  ct::runtime rt(mc());
  simple_adapt_params p;
  p.spin_cap = 128;
  adaptive_lock lk(0, cost(), p, waiting_policy::mixed(10));
  rt.fork(0, [&](ct::context& ctx) -> ct::task<void> {
    for (int i = 0; i < 10; ++i) {
      co_await lk.lock(ctx);
      co_await ctx.compute(sim::microseconds(5));
      co_await lk.unlock(ctx);
    }
  });
  rt.run_all();
  EXPECT_TRUE(lk.current_policy().is_pure_spin());
  EXPECT_EQ(lk.current_policy().spin_time, 128);
}

TEST(AdaptiveLock, ModerateWaitingGrowsSpinCount) {
  ct::runtime rt(mc());
  simple_adapt_params p;
  p.waiting_threshold = 4;  // 2 waiters stays below threshold
  p.n = 10;
  p.spin_cap = 1000;
  adaptive_lock lk(0, cost(), p, waiting_policy::mixed(10));
  for (unsigned proc = 0; proc < 3; ++proc) {
    rt.fork(proc, [&](ct::context& ctx) -> ct::task<void> {
      for (int i = 0; i < 20; ++i) {
        co_await lk.lock(ctx);
        co_await ctx.compute(sim::microseconds(60));
        co_await lk.unlock(ctx);
      }
    });
  }
  rt.run_all();
  // Spins grew beyond the initial 10 (policy saw 1-2 waiters repeatedly).
  EXPECT_GT(lk.current_policy().spin_time, 10);
  EXPECT_GT(lk.policy()->decisions(), 0u);
}

TEST(AdaptiveLock, HeavyWaitingDrivesToPureBlocking) {
  ct::runtime rt(mc(8));
  simple_adapt_params p;
  p.waiting_threshold = 1;  // anything above one waiter shrinks spins
  p.n = 10;
  adaptive_lock lk(0, cost(), p, waiting_policy::mixed(10));
  for (unsigned proc = 0; proc < 6; ++proc) {
    rt.fork(proc, [&](ct::context& ctx) -> ct::task<void> {
      for (int i = 0; i < 12; ++i) {
        co_await lk.lock(ctx);
        co_await ctx.compute(sim::microseconds(300));
        co_await lk.unlock(ctx);
      }
    });
  }
  rt.run_all();
  // With 5 waiters > threshold=1 the policy repeatedly subtracts 2n and hits
  // pure blocking (it may bounce back when waiting drains at the end; the
  // blocks counter proves the blocking phase happened).
  EXPECT_GT(lk.stats().blocks(), 0u);
  EXPECT_GT(lk.policy()->decisions(), 1u);
}

TEST(AdaptiveLock, SamplePeriodHonoured) {
  ct::runtime rt(mc());
  simple_adapt_params p;
  p.sample_period = 4;
  adaptive_lock lk(0, cost(), p);
  rt.fork(0, [&](ct::context& ctx) -> ct::task<void> {
    for (int i = 0; i < 16; ++i) {
      co_await lk.lock(ctx);
      co_await lk.unlock(ctx);
    }
  });
  rt.run_all();
  EXPECT_EQ(lk.object_monitor().sensor_at(0).samples_taken(), 4u);
  EXPECT_EQ(lk.costs().monitor_samples, 4u);
}

TEST(AdaptiveLock, SamplePeriodOneSamplesEveryUnlock) {
  ct::runtime rt(mc());
  simple_adapt_params p;
  p.sample_period = 1;
  adaptive_lock lk(0, cost(), p);
  rt.fork(0, [&](ct::context& ctx) -> ct::task<void> {
    for (int i = 0; i < 16; ++i) {
      co_await lk.lock(ctx);
      co_await lk.unlock(ctx);
    }
  });
  rt.run_all();
  EXPECT_EQ(lk.object_monitor().sensor_at(0).samples_taken(), 16u);
}

TEST(AdaptiveLock, SamplePeriodLongerThanRunNeverSamples) {
  // A period far beyond the trigger count must neither divide by zero nor
  // deliver a single observation — the lock just runs unmonitored.
  ct::runtime rt(mc());
  simple_adapt_params p;
  p.sample_period = 1000;
  adaptive_lock lk(0, cost(), p);
  rt.fork(0, [&](ct::context& ctx) -> ct::task<void> {
    for (int i = 0; i < 16; ++i) {
      co_await lk.lock(ctx);
      co_await lk.unlock(ctx);
    }
  });
  rt.run_all();
  EXPECT_EQ(lk.object_monitor().sensor_at(0).samples_taken(), 0u);
  EXPECT_EQ(lk.costs().reconfiguration_ops, 0u);
  EXPECT_EQ(lk.policy()->decisions(), 0u);
}

TEST(AdaptiveLock, SamplePeriodZeroIsNormalizedToEveryUnlock) {
  ct::runtime rt(mc());
  simple_adapt_params p;
  p.sample_period = 0;  // core::sensor guards 0 -> 1
  adaptive_lock lk(0, cost(), p);
  rt.fork(0, [&](ct::context& ctx) -> ct::task<void> {
    for (int i = 0; i < 8; ++i) {
      co_await lk.lock(ctx);
      co_await lk.unlock(ctx);
    }
  });
  rt.run_all();
  EXPECT_EQ(lk.object_monitor().sensor_at(0).period(), 1u);
  EXPECT_EQ(lk.object_monitor().sensor_at(0).samples_taken(), 8u);
}

TEST(AdaptiveLock, MonitoringChargesTime) {
  // Identical workloads; higher sampling rate must cost more virtual time
  // on an uncontended lock (monitoring overhead, §3).
  const auto run_with_period = [](std::uint32_t period) {
    ct::runtime rt(mc());
    simple_adapt_params p;
    p.sample_period = period;
    adaptive_lock lk(0, cost(), p);
    rt.fork(0, [&](ct::context& ctx) -> ct::task<void> {
      for (int i = 0; i < 50; ++i) {
        co_await lk.lock(ctx);
        co_await lk.unlock(ctx);
      }
    });
    return rt.run_all().end_time;
  };
  EXPECT_GT(run_with_period(1).ns, run_with_period(8).ns);
}

TEST(AdaptiveLock, ReconfigurationChargesAccesses) {
  ct::runtime rt(mc());
  simple_adapt_params p;
  p.sample_period = 2;
  adaptive_lock lk(0, cost(), p, waiting_policy::mixed(10));
  rt.fork(0, [&](ct::context& ctx) -> ct::task<void> {
    co_await lk.lock(ctx);
    co_await lk.unlock(ctx);
    co_await lk.lock(ctx);
    const auto before = rt.mach().counts();
    co_await lk.unlock(ctx);  // 2nd unlock: sample + reconfigure to pure spin
    const auto delta = rt.mach().counts() - before;
    EXPECT_GE(delta.reads(), 2u);   // queue check + sensor read + Ψ read
    EXPECT_GE(delta.writes(), 2u);  // word release + Ψ write
  });
  rt.run_all();
  EXPECT_EQ(lk.costs().reconfiguration_ops, 1u);
}

TEST(AdaptiveLock, StableStateStopsReconfiguring) {
  ct::runtime rt(mc());
  adaptive_lock lk(0, cost());
  rt.fork(0, [&](ct::context& ctx) -> ct::task<void> {
    for (int i = 0; i < 40; ++i) {
      co_await lk.lock(ctx);
      co_await lk.unlock(ctx);
    }
  });
  rt.run_all();
  // First sample flips to pure spin; after that the policy sees the same
  // no-contention state and issues no further Ψ.
  EXPECT_EQ(lk.costs().reconfiguration_ops, 1u);
  EXPECT_EQ(lk.policy()->decisions(), 1u);
}

TEST(AdaptiveLock, KindString) {
  adaptive_lock lk(0, cost());
  EXPECT_EQ(lk.kind(), "adaptive");
}

TEST(AdaptiveLock, ReconfigureAnnotationNamesTheDefaultPolicy) {
  // The default lock's d_c carries the registry policy's name and its
  // sensor vector — what trace readers and CI key on.
  obs::tracer tr;
  tr.enable();
  ct::runtime rt(mc());
  adaptive_lock lk(0, cost());
  lk.stats().attach_tracer(&tr, "qlock", 0);
  rt.fork(0, [&](ct::context& ctx) -> ct::task<void> {
    for (int i = 0; i < 4; ++i) {
      co_await lk.lock(ctx);
      co_await lk.unlock(ctx);
    }
  });
  rt.run_all();
  std::vector<std::string> decisions;
  for (const auto& e : tr.events()) {
    if (e.name == "qlock.reconfigure") decisions.push_back(e.detail);
  }
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0],
            "pure-spin(200) policy=simple-adapt sensors=no-of-waiting-threads=0");
}

// The paper's rule as the registry builds it: the default adaptive lock's
// policy, observed directly.
TEST(SimpleAdaptPolicy, FollowsPaperPseudocode) {
  simple_adapt_params p;
  p.waiting_threshold = 4;
  p.n = 10;
  p.spin_cap = 100;
  adaptive_lock lk(0, cost(), p, waiting_policy::mixed(30));
  auto& pol = lk.engine();
  EXPECT_EQ(pol.policy_name(), "simple-adapt");

  // waiting == 0 -> pure spin at cap.
  pol.observe({"no-of-waiting-threads", 0});
  EXPECT_EQ(lk.current_policy(), waiting_policy::pure_spin(100));

  // 0 < waiting <= threshold -> spins += n (capped), mixed.
  pol.observe({"no-of-waiting-threads", 2});
  EXPECT_EQ(lk.current_policy(), waiting_policy::mixed(100));  // capped at 100

  // waiting > threshold -> spins -= 2n.
  pol.observe({"no-of-waiting-threads", 9});
  EXPECT_EQ(lk.current_policy(), waiting_policy::mixed(80));

  // Repeated heavy waiting drives spins <= 0 -> pure blocking.
  for (int i = 0; i < 4; ++i) pol.observe({"no-of-waiting-threads", 9});
  EXPECT_TRUE(lk.current_policy().is_pure_sleep());

  // Recovery: no waiters -> pure spin again.
  pol.observe({"no-of-waiting-threads", 0});
  EXPECT_TRUE(lk.current_policy().is_pure_spin());
}

TEST(SimpleAdaptPolicy, IgnoresForeignSensors) {
  adaptive_lock lk(0, cost(), {}, waiting_policy::mixed(30));
  lk.engine().observe({"some-other-sensor", 99});
  EXPECT_EQ(lk.current_policy(), waiting_policy::mixed(30));
  EXPECT_EQ(lk.engine().decisions(), 0u);
}

}  // namespace
}  // namespace adx::locks
