// Bit-identity of the federated ct workloads across shard and worker
// counts. The suites are named ShardedCt* on purpose: the TSan CI job runs
// them as its sharded-ct stress filter, driving real parallel windows over
// the federation's native state.
#include "workload/sharded_cs.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "exec/job_executor.hpp"
#include "policy/registry.hpp"
#include "workload/ct_serve.hpp"

namespace adx::workload {
namespace {

sharded_cs_config small_cs(unsigned shards, bool coordinated = false) {
  sharded_cs_config cfg;
  cfg.machine = sim::machine_config::hierarchical_numa(3, 4);
  cfg.machine.context_switch = sim::microseconds(10);
  cfg.machine.dispatch_latency = sim::microseconds(2);
  cfg.threads_per_group = 3;
  cfg.iterations = 12;
  cfg.remote_every = 3;
  cfg.cs_length = sim::microseconds(40);
  cfg.think_time = sim::microseconds(120);
  cfg.shards = shards;
  if (coordinated) {
    // The benchmark's ring_cs_async shape: async break-even on adaptive
    // locks, every group's daemon enrolled with the fed_coordinator.
    cfg.kind = locks::lock_kind::adaptive;
    cfg.params.policy = policy::default_spec("break-even");
    cfg.params.policy.with_async().with_coordinate();
    cfg.coordinate = true;
  }
  return cfg;
}

/// The observables every run must reproduce exactly.
struct cs_signature {
  sim::vtime elapsed{};
  std::vector<std::uint64_t> acq;
  std::uint64_t contended{};
  std::uint64_t blocks{};
  std::uint64_t spins{};
  std::uint64_t echoes{};
  double rtt_mean{};
  double rtt_p99{};
  std::uint64_t posts{};
  std::uint64_t policy_ticks{};
  std::uint64_t policy_pumped{};
  std::uint64_t coord_reports{};
  std::uint64_t coord_demotions{};
  sim::domain_stats domain;

  friend bool operator==(const cs_signature&, const cs_signature&) = default;
};

cs_signature run_cs(unsigned shards, unsigned workers, bool coordinated = false) {
  const auto cfg = small_cs(shards, coordinated);
  exec::job_executor ex(workers);
  const auto r = run_sharded_cs(cfg, workers > 1 ? &ex : nullptr);
  EXPECT_TRUE(r.completed);
  return {r.elapsed,         r.group_acquisitions, r.contended,     r.blocks,
          r.spin_iterations, r.echoes,             r.echo_rtt_mean_us,
          r.echo_rtt_p99_us, r.posts,              r.policy_ticks,  r.policy_pumped,
          r.coord_reports,   r.coord_demotions,    r.domain};
}

TEST(ShardedCtSweep, RunsAndServesEveryEcho) {
  const auto cfg = small_cs(1);
  const auto r = run_sharded_cs(cfg);
  EXPECT_TRUE(r.completed);
  // 3 groups x 3 clients x (12/3) echoes, each an acquisition by the server
  // plus the clients' own 12 iterations each.
  EXPECT_EQ(r.echoes, 3u * 3u * 4u);
  EXPECT_EQ(r.acquisitions, 3u * 3u * 12u + r.echoes);
  // Every echo is a request post plus a reply post.
  EXPECT_EQ(r.posts, 2 * r.echoes);
  EXPECT_GT(r.echo_rtt_mean_us, 0.0);
  ASSERT_EQ(r.group_acquisitions.size(), 3u);
}

TEST(ShardedCtSweep, BitIdenticalAcrossShardAndWorkerCounts) {
  const auto ref = run_cs(1, 1);
  for (unsigned shards : {2u, 3u, 8u}) {
    for (unsigned workers : {1u, 8u}) {
      EXPECT_EQ(run_cs(shards, workers), ref)
          << "shards=" << shards << " workers=" << workers;
    }
  }
}

TEST(ShardedCtSweep, AsyncCoordinatedBitIdenticalAcrossShardAndWorkerCounts) {
  const auto ref = run_cs(1, 1, /*coordinated=*/true);
  EXPECT_GT(ref.policy_ticks, 0u);
  EXPECT_GT(ref.policy_pumped, 0u);
  // Every daemon tick of groups 1 and 2 reports to the hub by message, and
  // group 0's own ticks report in place.
  EXPECT_EQ(ref.coord_reports, ref.policy_ticks);
  for (unsigned shards : {2u, 3u, 8u}) {
    for (unsigned workers : {1u, 8u}) {
      EXPECT_EQ(run_cs(shards, workers, /*coordinated=*/true), ref)
          << "shards=" << shards << " workers=" << workers;
    }
  }
}

TEST(ShardedCtSweep, BlockingLocksHandOffAcrossTheHorizon) {
  auto cfg = small_cs(2);
  cfg.kind = locks::lock_kind::blocking;
  exec::job_executor ex(2);
  const auto r = run_sharded_cs(cfg, &ex);
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.blocks, 0u);

  auto cfg1 = small_cs(1);
  cfg1.kind = locks::lock_kind::blocking;
  const auto seq = run_sharded_cs(cfg1);
  EXPECT_EQ(r.elapsed, seq.elapsed);
  EXPECT_EQ(r.blocks, seq.blocks);
  EXPECT_EQ(r.group_acquisitions, seq.group_acquisitions);
}

TEST(ShardedCtSweep, SingleGroupDegeneratesToLocalSweep) {
  auto cfg = small_cs(1);
  cfg.machine = sim::machine_config::hierarchical_numa(1, 4);
  cfg.machine.context_switch = sim::microseconds(10);
  cfg.machine.dispatch_latency = sim::microseconds(2);
  const auto r = run_sharded_cs(cfg);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.echoes, 0u);  // no other group to echo to
  EXPECT_EQ(r.posts, 0u);
  EXPECT_EQ(r.acquisitions, 3u * 12u);
}

// ---------------------------------------------------------------- ct_serve

ct_serve_config small_serve(unsigned shards) {
  ct_serve_config cfg;
  cfg.machine = sim::machine_config::hierarchical_numa(3, 4);
  cfg.machine.context_switch = sim::microseconds(10);
  cfg.machine.dispatch_latency = sim::microseconds(2);
  cfg.servers_per_group = 2;
  cfg.requests_per_group = 40;
  cfg.mean_interarrival_us = 80.0;
  cfg.remote_fraction = 0.3;
  cfg.kind = locks::lock_kind::spin;
  cfg.shards = shards;
  return cfg;
}

/// small_serve with the square-wave burst on, long enough to cross burst
/// periods: ~400 arrivals per group in the 8x first 30 ms, then the base rate.
ct_serve_config bursty_serve(unsigned shards) {
  auto cfg = small_serve(shards);
  cfg.requests_per_group = 500;
  cfg.mean_interarrival_us = 600.0;
  cfg.burst_mult = 8.0;
  return cfg;
}

struct serve_signature {
  sim::vtime elapsed{};
  std::uint64_t served{};
  std::uint64_t remote{};
  double p50{};
  double p99{};
  std::uint64_t acq{};
  std::uint64_t posts{};
  sim::domain_stats domain;

  friend bool operator==(const serve_signature&, const serve_signature&) = default;
};

serve_signature run_serve(ct_serve_config (*make)(unsigned), unsigned shards,
                          unsigned workers) {
  exec::job_executor ex(workers);
  const auto r = run_ct_serve(make(shards), workers > 1 ? &ex : nullptr);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.served, r.generated);
  return {r.elapsed,        r.served, r.remote_requests, r.latency_p50_us,
          r.latency_p99_us, r.acquisitions, r.posts,    r.domain};
}

TEST(ShardedCtServe, ServesEveryRequestAndShutsDown) {
  const auto r = run_ct_serve(small_serve(1));
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.generated, 3u * 40u);
  EXPECT_EQ(r.served, r.generated);
  EXPECT_GT(r.remote_requests, 0u);
  EXPECT_GT(r.latency_p99_us, 0.0);
  EXPECT_GE(r.latency_p99_us, r.latency_p50_us);
}

TEST(ShardedCtServe, BitIdenticalAcrossShardAndWorkerCounts) {
  for (const auto make : {small_serve, bursty_serve}) {
    const auto ref = run_serve(make, 1, 1);
    for (unsigned shards : {2u, 3u, 8u}) {
      for (unsigned workers : {1u, 8u}) {
        EXPECT_EQ(run_serve(make, shards, workers), ref)
            << "burst_mult=" << make(1).burst_mult << " shards=" << shards
            << " workers=" << workers;
      }
    }
  }
}

TEST(ShardedCtServe, RemoteTrafficIsOnePostEach) {
  // Besides remote arrivals, only the shutdown protocol posts: one
  // source-done per group to the hub and one stop per group back.
  auto cfg = small_serve(1);
  const std::uint64_t G = cfg.machine.groups();
  cfg.remote_fraction = 0.0;
  auto r = run_ct_serve(cfg);
  EXPECT_EQ(r.remote_requests, 0u);
  EXPECT_EQ(r.posts, 2 * G);

  cfg.remote_fraction = 0.5;
  r = run_ct_serve(cfg);
  EXPECT_GT(r.remote_requests, 0u);
  EXPECT_EQ(r.posts, r.remote_requests + 2 * G);
}

TEST(ShardedCtServe, BurstsRaiseEveryTail) {
  for (const auto kind :
       {locks::lock_kind::spin, locks::lock_kind::blocking, locks::lock_kind::adaptive}) {
    auto cfg = bursty_serve(1);
    cfg.kind = kind;
    const auto bursty = run_ct_serve(cfg);
    cfg.burst_mult = 1.0;
    const auto light = run_ct_serve(cfg);
    EXPECT_EQ(bursty.served, bursty.generated) << locks::to_string(kind);
    EXPECT_EQ(light.served, light.generated) << locks::to_string(kind);
    EXPECT_GT(bursty.latency_p99_us, light.latency_p99_us) << locks::to_string(kind);
  }
}

TEST(ShardedCtServe, RejectsBadBurstMult) {
  for (const double m : {0.5, std::nan(""), std::numeric_limits<double>::infinity()}) {
    auto cfg = small_serve(1);
    cfg.burst_mult = m;
    EXPECT_THROW((void)run_ct_serve(cfg), std::invalid_argument) << m;
  }
}

}  // namespace
}  // namespace adx::workload
