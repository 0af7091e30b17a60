// Deterministic driver workloads for the adaptive objects, used only by the
// unit tests. The adx-bench scenarios (perf/scenarios.cpp) and the adx-check
// object fixtures (check/objects.cpp) each keep their own driver.
//
// Both drivers follow the repo's determinism discipline: every random
// choice (op kinds, keys, jitter) is pre-drawn from sim::rng(seed) before
// the runtime starts, so scheduling can never perturb the streams.
#pragma once

#include <cstdint>
#include <vector>

#include "objects/adaptive_hash_map.hpp"
#include "objects/adaptive_monitor.hpp"
#include "sim/machine_config.hpp"

namespace adx::objects {

struct map_workload_config {
  unsigned processors = 8;
  unsigned threads = 16;
  std::uint64_t ops_per_thread = 200;
  std::uint64_t key_space = 512;
  /// Op mix: insert / erase / global size; the rest are finds.
  double insert_fraction = 0.3;
  double erase_fraction = 0.1;
  double global_fraction = 0.02;
  sim::vdur think = sim::microseconds(20);
  map_config map{};
  sim::machine_config machine = sim::machine_config::butterfly_gp1000();
  std::uint64_t seed = 1993;
  std::uint64_t max_events = 400'000'000ULL;
};

struct map_workload_result {
  sim::vtime elapsed{};
  std::uint64_t total_ops{0};
  double throughput{0.0};  ///< operations per virtual second
  unsigned final_stripes{0};
  std::uint64_t resizes{0};
  std::uint64_t psi_violations{0};
  std::uint64_t final_size{0};
  /// True when the final table exactly matches the sequential shadow model
  /// maintained in the guarded sections (linearizability witness).
  bool shadow_match{false};
  // Aggregates over all stripe locks.
  std::uint64_t stripe_contended{0};
  std::uint64_t stripe_blocks{0};
  std::uint64_t stripe_spins{0};
};

[[nodiscard]] map_workload_result run_map_workload(const map_workload_config& cfg);

struct monitor_workload_config {
  unsigned processors = 8;
  unsigned threads = 16;
  std::uint64_t ops_per_thread = 100;
  sim::vdur section = sim::microseconds(10);   ///< critical-section compute
  sim::vdur outside = sim::microseconds(40);   ///< between entries
  monitor_config mon{};
  sim::machine_config machine = sim::machine_config::butterfly_gp1000();
  std::uint64_t seed = 1993;
  std::uint64_t max_events = 400'000'000ULL;
};

struct monitor_workload_result {
  sim::vtime elapsed{};
  std::uint64_t total_ops{0};
  double throughput{0.0};
  /// Shared counter incremented once per section — must equal total_ops
  /// (mutual-exclusion + no-lost-section witness).
  std::uint64_t counter{0};
  std::int64_t final_mode{0};
  std::uint64_t delegated{0};
  std::uint64_t combines{0};
  std::uint64_t mode_switches{0};
};

[[nodiscard]] monitor_workload_result run_monitor_workload(const monitor_workload_config& cfg);

}  // namespace adx::objects
