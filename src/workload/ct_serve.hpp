// Open-loop request serving on the federated thread package — real ct
// server threads on a sharded execution domain (the fat_tree_hpc4096
// scenario's engine).
//
// Each NUMA group runs an open-loop Poisson arrival process on its own
// shard, drawn from the domain's per-place rng stream: an arrival is either
// local (delivered directly to the group's mailbox) or remote (shipped to
// another group through federation::post, arriving one lookahead later —
// the canonical cross-group transit). A pool of server threads per group
// pops requests, acquires the group's place-bound lock, performs the
// service, and records the arrival-to-completion latency. Parked servers
// wait in a FIFO and are woken one per delivery.
//
// Shutdown is a two-phase message protocol with a time-ordering proof:
// every group posts source-done to the hub after its last arrival (time
// t_src); the hub receives the G-th at t_c >= max_g(t_src)+L and posts stop
// to every group, delivered at t_c+L. Every request is delivered by
// t_src+L <= t_c < t_c+L, so stop strictly follows all deliveries, and
// servers drain their mailbox before honouring it — no request is lost.
//
// All mutable state is place-partitioned (mailboxes, parked lists, the
// stream draws, histograms) or hub-only (the source-done count), and every
// cross-place influence is a tagged send, so results are bit-identical at
// every shard/worker count.
#pragma once

#include <cstdint>
#include <vector>

#include "exec/job_executor.hpp"
#include "locks/factory.hpp"
#include "obs/log_histogram.hpp"
#include "sim/event_domain.hpp"
#include "sim/machine_config.hpp"

namespace adx::workload {

struct ct_serve_config {
  sim::machine_config machine = sim::machine_config::hierarchical_numa(4, 8);
  /// Server threads per group, pinned to distinct local processors.
  unsigned servers_per_group = 2;
  std::uint64_t requests_per_group = 200;
  double mean_interarrival_us = 60.0;
  /// Fraction of a group's arrivals that target another group.
  double remote_fraction = 0.2;
  /// Lock-guarded service demand per request.
  sim::vdur service = sim::microseconds(25);

  locks::lock_kind kind = locks::lock_kind::adaptive;
  locks::lock_params params{};
  locks::lock_cost_model cost = locks::lock_cost_model::butterfly_cthreads();

  std::uint64_t seed = 42;
  unsigned shards = 1;
  bool adaptive_lookahead = false;
  unsigned max_widen = 8;
  std::uint64_t max_events = 500'000'000ULL;
};

struct ct_serve_result {
  sim::vtime elapsed{};
  bool completed{false};
  std::uint64_t generated{0};
  std::uint64_t served{0};
  /// Requests delivered across a group boundary.
  std::uint64_t remote_requests{0};
  /// Arrival-to-completion latency (µs), merged in group order.
  double latency_mean_us{0.0};
  double latency_p50_us{0.0};
  double latency_p99_us{0.0};
  double latency_max_us{0.0};
  /// The full merged latency histogram (ns) the percentiles above were read
  /// from. Telemetry producers stream it so the aggregation dashboard can
  /// compute exact fleet-wide percentiles.
  obs::log_histogram latency;
  std::uint64_t acquisitions{0};
  std::uint64_t blocks{0};
  std::uint64_t posts{0};
  sim::domain_stats domain;
  double throughput{0.0};
};

[[nodiscard]] ct_serve_result run_ct_serve(const ct_serve_config& cfg,
                                           exec::job_executor* ex = nullptr);

}  // namespace adx::workload
