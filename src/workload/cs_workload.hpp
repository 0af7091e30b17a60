// Synthetic critical-section workload — the artificial workload generator
// behind Figure 1 and the §2 spin-vs-block results from [MS93].
//
// T threads (round-robin pinned to P processors) each execute `iterations`
// cycles of { lock; compute(cs_length); unlock; compute(think_time) } on one
// shared lock. Sweeping cs_length with different lock kinds reproduces the
// combined-lock crossovers of Figure 1; sweeping threads-per-processor
// reproduces the spin-vs-block rule of §2.
#pragma once

#include <cstdint>
#include <vector>

#include "exec/job_executor.hpp"
#include "locks/factory.hpp"
#include "sim/machine_config.hpp"

namespace adx::workload {

struct cs_config {
  unsigned processors = 10;
  unsigned threads = 10;
  std::uint64_t iterations = 100;
  sim::vdur cs_length = sim::microseconds(100);
  sim::vdur think_time = sim::microseconds(300);

  locks::lock_kind kind = locks::lock_kind::spin;
  locks::lock_params params{};
  locks::lock_cost_model cost = locks::lock_cost_model::butterfly_cthreads();
  sim::machine_config machine = sim::machine_config::butterfly_gp1000();
  sim::node_id lock_home = 0;

  /// Deterministic per-iteration think-time jitter (fraction of think_time);
  /// avoids artificial lockstep between identical threads.
  double think_jitter = 0.25;
  std::uint64_t seed = 42;

  std::uint64_t max_events = 200'000'000ULL;
};

struct cs_result {
  sim::vtime elapsed{};
  std::uint64_t acquisitions{0};
  std::uint64_t contended{0};
  std::uint64_t blocks{0};
  std::uint64_t spin_iterations{0};
  std::int64_t peak_waiting{0};
  double mean_wait_us{0.0};
  double contention_ratio{0.0};
  /// Critical sections completed per virtual second.
  double throughput{0.0};
  /// Async policy runtime activity (zero for sync-mode runs): daemon ticks
  /// and observations pumped to the policy.
  std::uint64_t policy_ticks{0};
  std::uint64_t policy_pumped{0};
};

[[nodiscard]] cs_result run_cs_workload(const cs_config& cfg);

/// Sweep driver: runs every configuration as an independent simulation,
/// fanning the sweep points out across `ex`'s workers. Results are collected
/// by index (out[i] is configs[i]'s result), so a sweep's figures are
/// byte-identical for any worker count — with one worker this is exactly the
/// historical sequential loop.
[[nodiscard]] std::vector<cs_result> run_cs_sweep(const std::vector<cs_config>& configs,
                                                  exec::job_executor& ex);

}  // namespace adx::workload
