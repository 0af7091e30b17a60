// Monitor oracle tests: hand-driven event streams exercise each oracle's
// trigger precisely; whole-runtime runs confirm the oracles stay quiet on
// correct locks (including barging grant_mode=1, which the paper's direct
// handoff discipline does not cover).
#include "check/monitor.hpp"

#include <gtest/gtest.h>

#include "check/runner.hpp"
#include "locks/blocking_lock.hpp"
#include "locks/factory.hpp"

namespace adx::check {
namespace {

struct harness {
  ct::runtime rt{sim::machine_config::test_machine(2)};
  std::unique_ptr<locks::lock_object> lk =
      locks::make_lock(locks::lock_kind::spin, 0, locks::lock_cost_model::fast_test());
  sim::vtime t{};

  sim::vtime tick() {
    t = t + sim::microseconds(5);
    return t;
  }
};

TEST(Monitor, CleanHandDrivenStreamHasNoViolations) {
  harness h;
  monitor mon(h.rt);
  mon.watch(*h.lk, "l");
  for (std::uint32_t tid = 0; tid < 3; ++tid) {
    mon.on_acquired(*h.lk, h.tick(), {}, tid);
    mon.on_release(*h.lk, h.tick(), tid);
  }
  EXPECT_TRUE(mon.violations().empty());
}

TEST(Monitor, DetectsTwoConcurrentOwners) {
  harness h;
  monitor mon(h.rt);
  mon.watch(*h.lk, "l");
  mon.on_acquired(*h.lk, h.tick(), {}, 0);
  mon.on_acquired(*h.lk, h.tick(), {}, 1);  // second owner without a release
  ASSERT_FALSE(mon.violations().empty());
  EXPECT_EQ(mon.violations().front().oracle, "mutual-exclusion");
  EXPECT_EQ(mon.violations().front().lock, "l");
}

TEST(Monitor, DetectsReleaseByNonOwner) {
  harness h;
  monitor mon(h.rt);
  mon.watch(*h.lk, "l");
  mon.on_acquired(*h.lk, h.tick(), {}, 0);
  mon.on_release(*h.lk, h.tick(), 3);
  ASSERT_FALSE(mon.violations().empty());
  EXPECT_EQ(mon.violations().front().oracle, "mutual-exclusion");
}

TEST(Monitor, DetectsOperationInsideAnOpenPsiTransition) {
  harness h;
  monitor mon(h.rt);
  mon.watch(*h.lk, "l");
  mon.on_psi_begin(*h.lk, h.tick());
  mon.on_acquired(*h.lk, h.tick(), {}, 0);  // grant while Ψ is half-applied
  mon.on_psi_end(*h.lk, h.tick());
  ASSERT_FALSE(mon.violations().empty());
  EXPECT_EQ(mon.violations().front().oracle, "reconfig-atomicity");
}

TEST(Monitor, DetectsStarvationBeyondTheOvertakeBound) {
  harness h;
  oracle_params p;
  p.max_overtakes = 2;
  monitor mon(h.rt, p);
  mon.watch(*h.lk, "l");
  mon.on_contended(*h.lk, h.tick(), 5);  // thread 5 starts waiting
  for (std::uint32_t g = 0; g < 5; ++g) {  // five grants overtake it
    mon.on_acquired(*h.lk, h.tick(), {}, 1);
    mon.on_release(*h.lk, h.tick(), 1);
  }
  mon.on_acquired(*h.lk, h.tick(), {}, 5);
  bool starved = false;
  for (const auto& v : mon.violations()) starved |= v.oracle == "starvation";
  EXPECT_TRUE(starved);
}

TEST(Monitor, DetectsAbbaDeadlockAtQuiescence) {
  ct::runtime rt(sim::machine_config::test_machine(2));
  const auto cost = locks::lock_cost_model::fast_test();
  // The locks outlive the monitor, whose destructor detaches from them.
  locks::blocking_lock a(0, cost);
  locks::blocking_lock b(0, cost);
  monitor mon(rt);
  mon.watch(a, "a");
  mon.watch(b, "b");
  rt.fork(0, [&](ct::context& ctx) -> ct::task<void> {
    co_await a.lock(ctx);
    co_await ctx.compute(sim::microseconds(200));
    co_await b.lock(ctx);
    co_await b.unlock(ctx);
    co_await a.unlock(ctx);
  });
  rt.fork(1, [&](ct::context& ctx) -> ct::task<void> {
    co_await b.lock(ctx);
    co_await ctx.compute(sim::microseconds(200));
    co_await a.lock(ctx);
    co_await a.unlock(ctx);
    co_await b.unlock(ctx);
  });
  const auto r = rt.run();
  EXPECT_FALSE(r.completed);
  mon.finish(r);
  bool deadlock = false;
  for (const auto& v : mon.violations()) deadlock |= v.oracle == "deadlock";
  EXPECT_TRUE(deadlock);
}

TEST(Monitor, QuietOnACorrectContendedRun) {
  check_params p;
  p.config = run_config{}
                 .with_machine(sim::machine_config::test_machine(4))
                 .with_lock(locks::lock_kind::blocking)
                 .with_perturb(sim::perturb_profile::delay())
                 .with_seed(3);
  p.fix = fixture::oversub;
  const auto r = run_check(p);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.violations.empty()) << to_string(r.violations.front());
}

TEST(Monitor, GrantModeBargingStaysSafeUnderContention) {
  // grant_mode=1 (release-and-retry barging) for the three lock families
  // that honour it: oversubscribed contention + perturbation, every oracle
  // armed. Barging may reorder grants but must never break safety.
  for (const auto kind : {locks::lock_kind::combined, locks::lock_kind::reconfigurable,
                          locks::lock_kind::adaptive}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      check_params p;
      p.config = run_config{}
                     .with_machine(sim::machine_config::test_machine(4))
                     .with_lock(kind)
                     .with_grant_mode(1)
                     .with_perturb(sim::perturb_profile::delay())
                     .with_seed(seed);
      p.fix = fixture::oversub;
      p.iterations = 8;
      const auto r = run_check(p);
      EXPECT_TRUE(r.completed) << locks::to_string(kind) << " seed " << seed;
      EXPECT_TRUE(r.violations.empty())
          << locks::to_string(kind) << " seed " << seed << ": "
          << to_string(r.violations.front());
    }
  }
}

}  // namespace
}  // namespace adx::check
