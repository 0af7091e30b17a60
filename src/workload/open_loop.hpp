// Open-loop request-serving workload on the execution domain.
//
// The closed-loop workloads (cs_workload, client_server) measure makespan: T
// threads loop as fast as the lock lets them, so offered load falls whenever
// the lock slows down — exactly the feedback that hides tail latency in real
// serving systems. This family is open-loop: simulated client requests arrive
// on a Poisson (optionally bursty) process whose rate does NOT depend on
// completions, hit lock-guarded shared state, and report the latency
// distribution (p50/p99/p999 via sim::log_histogram) per lock kind and
// policy. Under bursts a spin lock's hot-spot tax compounds (deep queues slow
// every critical section, which deepens the queue), a blocking lock pays a
// fixed context-switch handoff, and an adaptive lock switches between them on
// queue depth — the regime where the paper's adaptation argument matters most.
//
// Scale-out: the machine is a hierarchical NUMA config; each NUMA group owns
// `locks_per_group` lock-guarded objects and an arrival process, and is one
// place of a `sim::event_domain` (its queue, its rng stream). Cross-group
// requests travel through event_domain::send() with transit exactly equal to
// the conservative lookahead (machine.min_cross_group_latency()), tagged with
// the shard-count-invariant origin (group << 32 | counter) — so results are
// bit-identical for ANY shard count and ANY worker count. The lock dynamics
// are a deterministic event-driven model priced from lock_cost_model +
// machine_config (grant handoffs, spin hot-spot module traffic, adaptive
// mode switching on params.adapt.waiting_threshold), not the full ct::runtime
// — adx-check's `serve` fixture covers real locks under open-loop arrivals.
#pragma once

#include <cstdint>
#include <vector>

#include "exec/job_executor.hpp"
#include "locks/factory.hpp"
#include "sim/machine_config.hpp"

namespace adx::workload {

struct open_loop_config {
  sim::machine_config machine = sim::machine_config::hierarchical_numa();
  locks::lock_kind kind = locks::lock_kind::adaptive;
  locks::lock_params params{};
  locks::lock_cost_model cost = locks::lock_cost_model::butterfly_cthreads();

  /// DES shards (> 0; groups are assigned round-robin: shard = group %
  /// shards). Results are bit-identical at every value.
  unsigned shards = 1;

  /// Lock-guarded objects per NUMA group.
  unsigned locks_per_group = 4;

  /// Requests each group's arrival process generates.
  std::uint64_t requests_per_group = 1000;

  /// Mean interarrival time per group (exponential draws).
  double mean_interarrival_us = 150.0;

  /// Mean critical-section service demand per request (exponential draws).
  double mean_service_us = 40.0;

  /// Fraction of a group's requests that target a lock in another group
  /// (these ride event_domain::send at exactly the lookahead horizon).
  double remote_ratio = 0.10;

  /// Square-wave burst modulation: during every other `burst_period_us`
  /// window the arrival rate is multiplied by `burst_mult`.
  bool bursty = false;
  double burst_mult = 4.0;
  double burst_period_us = 20'000.0;

  std::uint64_t seed = 42;
};

struct open_loop_result {
  std::uint64_t completed{0};
  sim::vtime elapsed{};
  /// Request latency (arrival to completion), merged across all groups.
  std::uint64_t p50_ns{0};
  std::uint64_t p99_ns{0};
  std::uint64_t p999_ns{0};
  std::uint64_t max_ns{0};
  double mean_ns{0.0};
  /// Grants served in spin vs blocking handoff mode (adaptive kinds use both).
  std::uint64_t grants_spin{0};
  std::uint64_t grants_block{0};
  /// Cross-group requests routed through send().
  std::uint64_t remote_requests{0};
  /// Sharded-DES synchronization rounds and barrier deliveries — pure
  /// functions of the schedule, identical for every shard/worker count.
  std::uint64_t windows{0};
  std::uint64_t cross_sends{0};
  /// Requests completed per virtual second.
  double throughput{0.0};
};

/// Runs the workload, fanning each synchronization window's shards across
/// `ex`'s workers (sequential windows when null). Results are identical.
/// Throws std::invalid_argument on a bad config (including shards == 0).
[[nodiscard]] open_loop_result run_open_loop(const open_loop_config& cfg,
                                             exec::job_executor* ex = nullptr);

/// Sweep driver: each configuration is an independent sequential-window
/// simulation; sweep points fan out across `ex`'s workers, collected by
/// index (byte-identical for any worker count).
[[nodiscard]] std::vector<open_loop_result> run_open_loop_sweep(
    const std::vector<open_loop_config>& configs, exec::job_executor& ex);

}  // namespace adx::workload
