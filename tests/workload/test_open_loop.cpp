#include "workload/open_loop.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "exec/job_executor.hpp"

namespace adx::workload {
namespace {

// One lock per group and a 40us mean critical section against a 600us mean
// interarrival: ~7% utilization in the light phase, deeply saturated when the
// 8x burst multiplier is on. These are the bench_serve_openloop constants.
open_loop_config light_config() {
  open_loop_config cfg;
  cfg.machine = sim::machine_config::hierarchical_numa(8, 8);
  cfg.locks_per_group = 1;
  cfg.requests_per_group = 400;
  cfg.mean_interarrival_us = 600.0;
  cfg.mean_service_us = 40.0;
  cfg.params.adapt.waiting_threshold = 16;
  return cfg;
}

open_loop_config bursty_config() {
  auto cfg = light_config();
  // Long enough for the burst phases to drive queue depth past the spin
  // crossover (~85 waiters) so the hot-spot collapse actually compounds.
  cfg.requests_per_group = 1500;
  cfg.bursty = true;
  cfg.burst_mult = 8.0;
  cfg.burst_period_us = 30'000.0;
  return cfg;
}

TEST(OpenLoop, CompletesEveryArrival) {
  auto cfg = light_config();
  const auto groups = cfg.machine.groups();
  for (const auto kind :
       {locks::lock_kind::spin, locks::lock_kind::blocking, locks::lock_kind::adaptive}) {
    cfg.kind = kind;
    const auto r = run_open_loop(cfg);
    EXPECT_EQ(r.completed, groups * cfg.requests_per_group) << locks::to_string(kind);
    EXPECT_GT(r.p50_ns, 0u) << locks::to_string(kind);
    EXPECT_GE(r.p99_ns, r.p50_ns) << locks::to_string(kind);
    EXPECT_GE(r.p999_ns, r.p99_ns) << locks::to_string(kind);
    EXPECT_GE(r.max_ns, r.p999_ns) << locks::to_string(kind);
  }
}

TEST(OpenLoop, BitIdenticalAcrossShardCounts) {
  auto cfg = bursty_config();
  cfg.shards = 1;
  const auto ref = run_open_loop(cfg);
  for (const unsigned shards : {2u, 3u, 8u}) {
    cfg.shards = shards;
    const auto got = run_open_loop(cfg);
    EXPECT_EQ(got.completed, ref.completed) << "shards=" << shards;
    EXPECT_EQ(got.elapsed.ns, ref.elapsed.ns) << "shards=" << shards;
    EXPECT_EQ(got.p50_ns, ref.p50_ns) << "shards=" << shards;
    EXPECT_EQ(got.p99_ns, ref.p99_ns) << "shards=" << shards;
    EXPECT_EQ(got.p999_ns, ref.p999_ns) << "shards=" << shards;
    EXPECT_EQ(got.max_ns, ref.max_ns) << "shards=" << shards;
    EXPECT_EQ(got.mean_ns, ref.mean_ns) << "shards=" << shards;
    EXPECT_EQ(got.grants_spin, ref.grants_spin) << "shards=" << shards;
    EXPECT_EQ(got.grants_block, ref.grants_block) << "shards=" << shards;
    EXPECT_EQ(got.remote_requests, ref.remote_requests) << "shards=" << shards;
    EXPECT_EQ(got.windows, ref.windows) << "shards=" << shards;
    EXPECT_EQ(got.cross_sends, ref.cross_sends) << "shards=" << shards;
    EXPECT_EQ(got.throughput, ref.throughput) << "shards=" << shards;
  }
}

TEST(OpenLoop, ParallelWorkersMatchSequential) {
  auto cfg = bursty_config();
  cfg.shards = 4;
  const auto seq = run_open_loop(cfg);
  exec::job_executor ex(3);
  const auto par = run_open_loop(cfg, &ex);
  EXPECT_EQ(par.completed, seq.completed);
  EXPECT_EQ(par.elapsed.ns, seq.elapsed.ns);
  EXPECT_EQ(par.p50_ns, seq.p50_ns);
  EXPECT_EQ(par.p999_ns, seq.p999_ns);
  EXPECT_EQ(par.mean_ns, seq.mean_ns);
  EXPECT_EQ(par.windows, seq.windows);
  EXPECT_EQ(par.cross_sends, seq.cross_sends);
}

TEST(OpenLoop, SweepIsByteIdenticalForAnyWorkerCount) {
  std::vector<open_loop_config> pts;
  for (const auto kind : {locks::lock_kind::spin, locks::lock_kind::adaptive}) {
    auto cfg = light_config();
    cfg.kind = kind;
    cfg.requests_per_group = 200;
    pts.push_back(cfg);
  }
  exec::job_executor one(1), four(4);
  const auto a = run_open_loop_sweep(pts, one);
  const auto b = run_open_loop_sweep(pts, four);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].p50_ns, b[i].p50_ns) << i;
    EXPECT_EQ(a[i].p999_ns, b[i].p999_ns) << i;
    EXPECT_EQ(a[i].mean_ns, b[i].mean_ns) << i;
  }
}

// Light load: queues stay shallow, so the adaptive lock keeps the spin
// handoff and beats the blocking lock's fixed context-switch tail.
TEST(OpenLoop, AdaptiveHoldsNearSpinUnderLightLoad) {
  auto cfg = light_config();
  cfg.kind = locks::lock_kind::spin;
  const auto spin = run_open_loop(cfg);
  cfg.kind = locks::lock_kind::blocking;
  const auto block = run_open_loop(cfg);
  cfg.kind = locks::lock_kind::adaptive;
  const auto adapt = run_open_loop(cfg);

  EXPECT_LT(adapt.p99_ns, block.p99_ns);
  EXPECT_LT(adapt.p50_ns, 2 * spin.p50_ns);
  EXPECT_GT(adapt.grants_spin, adapt.grants_block);
}

// Bursty load: the spin lock's hot-spot tax compounds with queue depth and
// its tail collapses; the adaptive lock crosses to the blocking handoff at
// waiting_threshold and tracks the blocking lock's bounded tail instead.
TEST(OpenLoop, AdaptiveAvoidsSpinCollapseUnderBursts) {
  auto cfg = bursty_config();
  cfg.kind = locks::lock_kind::spin;
  const auto spin = run_open_loop(cfg);
  cfg.kind = locks::lock_kind::blocking;
  const auto block = run_open_loop(cfg);
  cfg.kind = locks::lock_kind::adaptive;
  const auto adapt = run_open_loop(cfg);

  EXPECT_LT(adapt.p999_ns, spin.p999_ns / 5);
  EXPECT_LT(adapt.p999_ns, 2 * block.p999_ns);
  EXPECT_GT(adapt.grants_block, adapt.grants_spin);
}

TEST(OpenLoop, RemoteTrafficRidesTheBarrier) {
  auto cfg = light_config();
  cfg.remote_ratio = 0.0;
  auto r = run_open_loop(cfg);
  EXPECT_EQ(r.remote_requests, 0u);
  EXPECT_EQ(r.cross_sends, 0u);

  cfg.remote_ratio = 0.5;
  r = run_open_loop(cfg);
  EXPECT_GT(r.remote_requests, 0u);
  // Every remote request is exactly one barrier delivery (transit == the
  // conservative lookahead), including ones whose target maps to the same
  // shard — same-shard group traffic still goes through send().
  EXPECT_EQ(r.cross_sends, r.remote_requests);
}

TEST(OpenLoop, RejectsBadShardCount) {
  auto cfg = light_config();
  cfg.shards = 0;
  EXPECT_THROW((void)run_open_loop(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace adx::workload
