// Partitioned critical-section workload on the federated thread package —
// the fig1-style sweep, scaled out across execution-domain shards with REAL
// ct threads and real place-bound locks.
//
// Each NUMA group runs its own closed-loop cs_workload community: a group-
// local lock (bound to its place), `threads_per_group` client threads, an
// echo server thread, and optionally a per-group async policy daemon. Every
// `remote_every`-th iteration a client posts an echo request to the next
// group's server and blocks; the server acquires its own group's lock,
// performs the service, and posts the reply back — so lock handoffs, wakeups
// and policy pumps all cross shard boundaries through federation::post()
// (i.e. the domain's send() at exactly the lookahead horizon).
//
// Determinism: locks are place-bound, all think-time jitter is pre-drawn
// host-side in (group, thread, iteration) order from one rng, and every
// cross-group influence is a tagged send — so the run is bit-identical at
// every shard/worker count.
#pragma once

#include <cstdint>
#include <vector>

#include "exec/job_executor.hpp"
#include "locks/factory.hpp"
#include "sim/event_domain.hpp"
#include "sim/machine_config.hpp"

namespace adx::workload {

struct sharded_cs_config {
  sim::machine_config machine = sim::machine_config::hierarchical_numa(4, 8);
  unsigned threads_per_group = 6;
  std::uint64_t iterations = 40;
  sim::vdur cs_length = sim::microseconds(100);
  sim::vdur think_time = sim::microseconds(300);
  double think_jitter = 0.25;

  /// Every `remote_every`-th iteration posts an echo to the next group and
  /// blocks for the reply. 0 disables cross-group traffic entirely.
  std::uint64_t remote_every = 4;
  /// Service demand of the echo server's lock-guarded section.
  sim::vdur server_service = sim::microseconds(30);

  locks::lock_kind kind = locks::lock_kind::spin;
  locks::lock_params params{};
  locks::lock_cost_model cost = locks::lock_cost_model::butterfly_cthreads();

  /// Enrols every group's policy runtime with the cross-shard coordinator
  /// (requires an async coordinated spec in `params.policy` to do anything).
  bool coordinate = false;

  std::uint64_t seed = 42;
  unsigned shards = 1;
  bool adaptive_lookahead = false;
  unsigned max_widen = 8;
  std::uint64_t max_events = 200'000'000ULL;
};

struct sharded_cs_result {
  sim::vtime elapsed{};
  bool completed{false};
  /// Lock acquisitions per group, in group order, and their sum.
  std::vector<std::uint64_t> group_acquisitions;
  std::uint64_t acquisitions{0};
  std::uint64_t contended{0};
  std::uint64_t blocks{0};
  std::uint64_t spin_iterations{0};
  /// Echo round-trips completed and their latency (µs), merged group order.
  std::uint64_t echoes{0};
  double echo_rtt_mean_us{0.0};
  double echo_rtt_p99_us{0.0};
  /// Cross-shard messages (echo requests + replies + policy traffic).
  std::uint64_t posts{0};
  /// Policy activity summed in group order; coordinator counters from hub.
  std::uint64_t policy_ticks{0};
  std::uint64_t policy_pumped{0};
  std::uint64_t coord_reports{0};
  std::uint64_t coord_demotions{0};
  sim::domain_stats domain;
  double throughput{0.0};
};

/// Runs the workload on `cfg.shards` shards; `ex` (nullable) supplies the
/// worker pool that executes shard windows in parallel.
[[nodiscard]] sharded_cs_result run_sharded_cs(const sharded_cs_config& cfg,
                                               exec::job_executor* ex = nullptr);

}  // namespace adx::workload
