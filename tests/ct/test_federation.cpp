#include "ct/federation.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "ct/context.hpp"
#include "exec/job_executor.hpp"
#include "locks/factory.hpp"
#include "sim/event_domain.hpp"

namespace adx::ct {
namespace {

sim::machine_config fed_machine(unsigned groups = 3, unsigned per_group = 4) {
  auto cfg = sim::machine_config::hierarchical_numa(groups, per_group);
  cfg.context_switch = sim::microseconds(5);
  cfg.dispatch_latency = sim::microseconds(1);
  return cfg;
}

TEST(Federation, RejectsButterflyWireModel) {
  auto cfg = fed_machine();
  cfg.wire_model = sim::interconnect_model::butterfly;
  auto dom = sim::make_event_domain(cfg);
  EXPECT_THROW(federation(cfg, *dom), std::invalid_argument);
}

TEST(Federation, RejectsPlaceCountMismatch) {
  auto cfg = fed_machine(3, 4);
  auto dom = sim::make_event_domain(fed_machine(2, 4));
  EXPECT_THROW(federation(cfg, *dom), std::invalid_argument);
}

TEST(Federation, GroupConfigTrimsNodesAndFoldsSeed) {
  auto cfg = fed_machine(3, 4);
  cfg.nodes = 10;  // last group short: 4 + 4 + 2
  const auto g0 = federation::group_config(cfg, 0);
  const auto g2 = federation::group_config(cfg, 2);
  EXPECT_EQ(g0.nodes, 4u);
  EXPECT_EQ(g2.nodes, 2u);
  EXPECT_NE(g0.seed, cfg.seed);
  EXPECT_NE(g0.seed, g2.seed);
  // The trimmed machine is all one group.
  EXPECT_EQ(g0.group_of(3), 0u);
  EXPECT_EQ(g2.group_of(1), 0u);
}

TEST(Federation, ForkMapsGlobalNodesToGroupLocalProcessors) {
  const auto cfg = fed_machine(3, 4);
  auto dom = sim::make_event_domain(cfg);
  federation fed(cfg, *dom);
  ASSERT_EQ(fed.groups(), 3u);

  std::vector<unsigned> ran_on(3, ~0u);
  for (unsigned g = 0; g < 3; ++g) {
    const sim::node_id node = g * 4 + 2;  // third processor of each group
    const auto t = fed.fork(node, [&ran_on, g](context& ctx) -> task<void> {
      ran_on[g] = ctx.proc();
      co_return;
    });
    EXPECT_EQ(t.group, g);
  }
  EXPECT_THROW(fed.fork(12, [](context&) -> task<void> { co_return; }),
               std::out_of_range);

  const auto r = fed.run_all();
  EXPECT_TRUE(r.completed);
  for (unsigned g = 0; g < 3; ++g) EXPECT_EQ(ran_on[g], 2u);
}

TEST(Federation, PostUnblockLandsExactlyAtTheLookaheadHorizon) {
  const auto cfg = fed_machine(2, 4);
  auto dom = sim::make_event_domain(cfg);
  federation fed(cfg, *dom);
  const auto L = dom->lookahead();

  sim::vtime blocked_at{};
  sim::vtime posted_at{};
  sim::vtime woken_at{};

  // A thread on group 1 blocks; a thread on group 0 wakes it cross-shard.
  const auto sleeper = fed.fork(4, [&](context& ctx) -> task<void> {
    blocked_at = ctx.now();
    co_await ctx.block();
    woken_at = ctx.now();
  });
  fed.fork(0, [&, sleeper](context& ctx) -> task<void> {
    co_await ctx.sleep_for(sim::microseconds(50));
    posted_at = ctx.now();
    fed.post_unblock(0, sleeper);
    co_return;
  });

  const auto r = fed.run_all();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(fed.posts(), 1u);
  // The wakeup event lands at exactly posted_at + L; the woken thread then
  // pays its own dispatch/context-switch before running.
  EXPECT_GE(woken_at, posted_at + L);
  EXPECT_LT(blocked_at, posted_at + L);
  EXPECT_EQ(dom->stats().cross_sends, 1u);
}

/// fed_machine with a 2 ms wire: the lookahead is the wire, so a short run
/// is one fat window whose busy shards fork whenever there are workers.
sim::machine_config fat_window_machine() {
  auto cfg = fed_machine(4, 4);
  cfg.remote_wire = sim::milliseconds(2);
  return cfg;
}

/// Keeps groups 0, 2 and 3 of a 4x4 machine computing, so windows have
/// several busy shards while group 1 does the thing under test.
void fork_busy_groups(federation& fed) {
  for (const sim::node_id node : {0u, 8u, 12u}) {
    fed.fork(node, [](context& ctx) -> task<void> {
      for (int i = 0; i < 4; ++i) co_await ctx.compute(sim::microseconds(50));
    });
  }
}

TEST(Federation, CrossPlaceLockOperationThrows) {
  // A group-1 thread touching a place-0 lock violates the shard discipline.
  // The error must surface from run_all whether it is raised inline or on a
  // pool worker; the fat-window machine makes the window it is raised in
  // fork.
  for (const auto& cfg : {fed_machine(4, 4), fat_window_machine()}) {
    std::string inline_what;
    for (unsigned shards : {1u, 2u, 4u}) {
      for (unsigned jobs : {1u, 2u, 4u}) {
        const auto where = testing::Message() << "wire=" << cfg.remote_wire.ns
                                              << " shards=" << shards << " jobs=" << jobs;
        auto dom = sim::make_event_domain(cfg, {.shards = shards});
        federation fed(cfg, *dom);
        auto lk = locks::make_lock(locks::lock_kind::spin, 0,
                                   locks::lock_cost_model::butterfly_cthreads(), {});
        lk->bind_place(0);
        fork_busy_groups(fed);
        fed.fork(4, [&lk](context& ctx) -> task<void> {
          co_await ctx.compute(sim::microseconds(50));
          co_await lk->lock(ctx);
          co_await lk->unlock(ctx);
        });
        exec::job_executor ex(jobs);
        std::string what;
        try {
          fed.run_all(jobs > 1 ? &ex : nullptr);
          ADD_FAILURE() << "no throw: " << where;
        } catch (const std::logic_error& e) {
          what = e.what();
        }
        if (inline_what.empty()) {
          inline_what = what;
        } else {
          EXPECT_EQ(what, inline_what) << where;
        }
        // One shard runs without the executor; otherwise the first window
        // with two busy shards always forks.
        if (shards > 1 && jobs > 1) {
          EXPECT_GT(dom->forked_windows(), 0u) << where;
        }
      }
    }
  }

  // The same lock is fine from its own place.
  const auto cfg = fed_machine(4, 4);
  auto dom2 = sim::make_event_domain(cfg);
  federation fed2(cfg, *dom2);
  auto lk2 = locks::make_lock(locks::lock_kind::spin, 0,
                              locks::lock_cost_model::butterfly_cthreads(), {});
  lk2->bind_place(0);
  fed2.fork(0, [&lk2](context& ctx) -> task<void> {
    co_await lk2->lock(ctx);
    co_await lk2->unlock(ctx);
  });
  EXPECT_TRUE(fed2.run_all().completed);
  EXPECT_EQ(lk2->stats().acquisitions(), 1u);
}

TEST(Federation, ThreadErrorInOneGroupWhileOthersRun) {
  // One group's thread throws while three groups compute: run_all rethrows
  // that error, message intact, at every shard and worker count — also when
  // the throw happens inside a forked fat window.
  for (const auto& cfg : {fed_machine(4, 4), fat_window_machine()}) {
    for (unsigned shards : {1u, 2u, 4u}) {
      for (unsigned jobs : {1u, 2u, 4u}) {
        const auto where = testing::Message() << "wire=" << cfg.remote_wire.ns
                                              << " shards=" << shards << " jobs=" << jobs;
        auto dom = sim::make_event_domain(cfg, {.shards = shards});
        federation fed(cfg, *dom);
        fork_busy_groups(fed);
        fed.fork(4, [](context& ctx) -> task<void> {
          co_await ctx.compute(sim::microseconds(70));
          throw std::runtime_error("group 1 failed");
        });
        exec::job_executor ex(jobs);
        try {
          fed.run_all(jobs > 1 ? &ex : nullptr);
          ADD_FAILURE() << "no throw: " << where;
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), "group 1 failed") << where;
        }
      }
    }
  }
}

TEST(Federation, DeadlockReportsStuckThreadsAcrossGroups) {
  const auto cfg = fed_machine(2, 4);
  auto dom = sim::make_event_domain(cfg);
  federation fed(cfg, *dom);
  fed.fork(0, [](context& ctx) -> task<void> { co_await ctx.block(); });
  fed.fork(5, [](context& ctx) -> task<void> { co_await ctx.block(); });
  EXPECT_THROW(fed.run_all(), deadlock_error);
  const auto r = fed.run(nullptr);
  EXPECT_FALSE(r.completed);
  ASSERT_EQ(r.stuck.size(), 2u);
  EXPECT_EQ(r.stuck[0].group, 0u);
  EXPECT_EQ(r.stuck[1].group, 1u);
}

/// End-to-end determinism: a federated token ring (each group's thread
/// blocks, is woken cross-shard, then wakes the next group) must finish at
/// the same virtual time with the same counters at every shard/worker count.
struct ring_observables {
  sim::vtime end{};
  std::uint64_t posts{0};
  std::uint64_t dispatches{0};
  sim::domain_stats stats;

  friend bool operator==(const ring_observables&, const ring_observables&) = default;
};

ring_observables run_ring(unsigned shards, unsigned workers) {
  const auto cfg = fed_machine(3, 4);
  auto dom = sim::make_event_domain(cfg, {.shards = shards, .seed = 123});
  federation fed(cfg, *dom);

  std::vector<federation::fed_thread> ring(3);
  for (unsigned g = 0; g < 3; ++g) {
    ring[g] = fed.fork(g * 4, [&fed, &ring, g](context& ctx) -> task<void> {
      for (int lap = 0; lap < 5; ++lap) {
        co_await ctx.block();
        co_await ctx.compute(sim::microseconds(20));
        fed.post_unblock(g, ring[(g + 1) % 3]);
      }
    });
  }
  // Kick the ring from a group-0 thread that sleeps past every ring
  // thread's first block (a host-side post at time L could land while
  // ring[0] is still dispatching and be lost as a pre-block wakeup).
  fed.fork(1, [&fed, &ring](context& ctx) -> task<void> {
    co_await ctx.sleep_for(sim::microseconds(200));
    fed.post_unblock(0, ring[0]);
  });

  exec::job_executor ex(workers);
  const auto r = fed.run_all(workers > 1 ? &ex : nullptr);
  EXPECT_TRUE(r.completed);
  return {r.end_time, fed.posts(), fed.total_dispatches(), dom->stats()};
}

TEST(Federation, TokenRingBitIdenticalAcrossShardAndWorkerCounts) {
  const auto ref = run_ring(1, 1);
  EXPECT_EQ(ref.posts, 16u);  // 1 kick + 15 laps
  for (unsigned shards : {2u, 3u}) {
    for (unsigned workers : {1u, 4u}) {
      EXPECT_EQ(run_ring(shards, workers), ref)
          << "shards=" << shards << " workers=" << workers;
    }
  }
}

}  // namespace
}  // namespace adx::ct
