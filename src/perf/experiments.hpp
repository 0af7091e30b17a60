// One definition per experiment. Every experiment that is both a bench binary
// and an adx-bench scenario is a plain function here: it takes a shape struct
// and returns plain rows of virtual-clock numbers. The binary parses its flags
// into the shape and renders the rows beside the paper's figures; the scenario
// runs the function at a CI-reduced shape and names the rows as metrics.
//
// A shape's defaults are the binary's defaults (the paper-full shape); the
// k…Ci constant beside it is the shape the scenario gates. A `jobs` field fans
// independent runs (or DES shard windows) across that many host workers, 0 =
// one per CPU; no result depends on it.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "perf/probes.hpp"
#include "workload/cs_workload.hpp"
#include "workload/ct_serve.hpp"
#include "workload/sharded_cs.hpp"

namespace adx::perf {

/// Tables 1-3: TSP with blocking vs adaptive locks, plus the sequential run.
struct tsp_table_shape {
  unsigned cities = 32;
  unsigned processors = 10;  ///< one searcher thread each
  std::vector<std::uint64_t> seeds = default_seeds();
};
inline const tsp_table_shape kTspTableCi{.cities = 16, .processors = 8, .seeds = {9001, 1234, 777}};

struct tsp_table_rows {
  double sequential_ms{0};  ///< first seed, no locks
  tsp_summary blocking;
  tsp_summary adaptive;
};
[[nodiscard]] tsp_table_rows tsp_table(tsp::variant v, const tsp_table_shape& shape);

/// One operation's virtual cost with the lock word local and remote (us).
struct cost_row {
  double local_us{0};
  double remote_us{0};
};

/// Tables 4-5: uncontended lock and unlock costs. Rows in both tables:
/// atomior, spin, spin-with-backoff, blocking, adaptive.
struct op_cost_shape {
  /// Unlocks averaged per row: the adaptive lock samples its monitor on every
  /// other unlock, and the paper's Table 5 figure amortizes that.
  unsigned unlock_reps = 8;
};
inline constexpr op_cost_shape kOpCostCi{.unlock_reps = 1};

struct op_cost_rows {
  std::vector<cost_row> lock;
  std::vector<cost_row> unlock;
};
[[nodiscard]] op_cost_rows lock_op_costs(const op_cost_shape& shape);

/// Table 6: the locking cycle (release to acquire, one waiter present) of
/// spin, spin-with-backoff and blocking locks.
[[nodiscard]] std::vector<cost_row> cycle_static();
/// Table 7: the same cycle on a reconfigurable lock pinned as spin (4096),
/// then as blocking.
[[nodiscard]] std::vector<cost_row> cycle_adaptive();
/// Table 8: acquisition, configure(waiting policy), configure(scheduler), and
/// one monitor sample (the extra time of a sampling unlock; local only, so
/// its remote_us is 0).
[[nodiscard]] std::vector<cost_row> config_op_costs();

/// Figure 1: CS length sweep, threads > processors.
struct cs_sweep_shape {
  unsigned processors = 6;
  unsigned threads = 12;
  std::uint64_t iterations = 120;
  std::vector<double> cs_lengths_us = {10, 25, 50, 100, 200, 400, 800, 1600};
  /// The combined(k) columns, between the blocking and the adaptive column.
  std::vector<std::int64_t> combined_spins = {1, 10, 50};
  unsigned jobs = 0;
};
inline const cs_sweep_shape kCsSweepCi{
    .iterations = 60, .cs_lengths_us = {10, 100, 800}, .combined_spins = {10}, .jobs = 1};

/// Row-major [CS length][column]; columns blocking, combined(k)..., adaptive.
[[nodiscard]] std::vector<workload::cs_result> cs_sweep(const cs_sweep_shape& shape);

/// Figures 4-9: one TSP solve recording the locking patterns.
struct pattern_shape {
  unsigned cities = 32;
  unsigned processors = 10;
  std::uint64_t seed = 9001;
  locks::lock_kind kind = locks::lock_kind::blocking;
  obs::tracer* tracer = nullptr;  ///< not owned; records the run when set
};
inline const pattern_shape kPatternCi{.cities = 20};

/// QLOCK: lock_reports[0] and qlock_pattern; GLOB-ACT-LOCK: lock_reports[2]
/// and act_pattern.
[[nodiscard]] tsp::parallel_result locking_pattern(tsp::variant v, const pattern_shape& shape);

/// §2-a extension: spin vs blocking at 6, 12 and 18 threads on 6 processors.
struct spin_vs_block_shape {
  std::uint64_t iterations = 150;
  unsigned jobs = 0;
};
inline constexpr spin_vs_block_shape kSpinVsBlockCi{.iterations = 60, .jobs = 1};

struct spin_vs_block_row {
  unsigned threads{0};
  unsigned processors{0};
  std::optional<double> spin_ms;  ///< empty where pure spin livelocks
  double combined_ms{0};          ///< combined(25)
  double blocking_ms{0};
};
[[nodiscard]] std::vector<spin_vs_block_row> spin_vs_block(const spin_vs_block_shape& shape);

/// Ablation: the hot-spot lock on the constant-wire interconnect, then on
/// the staged butterfly, for every kind.
struct interconnect_shape {
  std::uint64_t iterations = 120;
  std::vector<locks::lock_kind> kinds = {locks::lock_kind::spin, locks::lock_kind::blocking,
                                         locks::lock_kind::adaptive};
  unsigned jobs = 0;
};
inline const interconnect_shape kInterconnectCi{
    .iterations = 60, .kinds = {locks::lock_kind::spin, locks::lock_kind::adaptive}, .jobs = 1};

struct interconnect_row {
  bool staged{false};
  locks::lock_kind kind{};
  double elapsed_ms{0};
  double mean_wait_us{0};
  double queue_delay_ms{0};
  std::optional<double> switch_delay_ms;  ///< only the staged network has switches
};
[[nodiscard]] std::vector<interconnect_row> interconnect_ablation(const interconnect_shape& shape);

/// Ablation: simple-adapt Waiting-Threshold x n on centralized TSP.
struct threshold_shape {
  unsigned cities = 32;
  std::uint64_t seed = 9001;
  std::vector<std::int64_t> thresholds = {1, 4, 12, 24};
  std::vector<std::int64_t> ns = {5, 20, 60};
  unsigned jobs = 0;
};
inline const threshold_shape kThresholdCi{
    .cities = 14, .thresholds = {1, 12}, .ns = {5, 20}, .jobs = 1};

struct threshold_row {
  std::int64_t threshold{0};
  std::int64_t n{0};
  double elapsed_ms{0};
  double qlock_mean_wait_us{0};
};
/// Row 0 is the blocking-lock baseline; then the adaptive rows, threshold-major.
[[nodiscard]] std::vector<threshold_row> threshold_ablation(const threshold_shape& shape);

/// Ablation, sync vs async policy execution, at one thread per processor:
/// the inline policy bill in isolation. Rows: sync, async at the default
/// period, async at 4x the period.
struct async_modes_shape {
  std::uint64_t iterations = 200;
  unsigned threads = 6;  ///< one per processor; the daemon gets the next one
  std::string policy = "break-even";
  unsigned jobs = 0;
};

struct async_mode_row {
  bool async{false};
  std::uint64_t period_us{0};  ///< 0 for the sync row
  double elapsed_ms{0};
  double mean_wait_us{0};
  std::uint64_t decisions{0};
  std::uint64_t delivered{0};
  double inline_cost_us{0};  ///< policy cost charged on the lock's own path
  std::uint64_t ticks{0};
};
[[nodiscard]] std::vector<async_mode_row> async_policy_modes(const async_modes_shape& shape);

/// The same ablation on the oversubscribed Figure 1 grid at kCsSweepCi's
/// shape, where the unlocking thread's processor is always wanted. Rows:
/// sync, async.
struct async_grid_shape {
  std::string policy = "break-even";
  unsigned jobs = 0;
};
inline const async_grid_shape kAsyncGridCi{.jobs = 1};

struct async_grid_row {
  bool async{false};
  std::vector<double> cs_ms;  ///< one per kCsSweepCi CS length
  double total_ms{0};
  std::uint64_t ticks{0};
  std::uint64_t pumped{0};
};
[[nodiscard]] std::vector<async_grid_row> async_policy_grid(const async_grid_shape& shape);

/// Federated ct critical-section sweep: real ct threads, one runtime per NUMA
/// group, cross-group echoes. One row per kind.
struct sharded_cs_shape {
  unsigned groups = 4;
  unsigned group_nodes = 8;
  unsigned threads = 6;  ///< client threads per group
  std::uint64_t iterations = 40;
  std::uint64_t cs_us = 100;
  std::uint64_t think_us = 300;
  std::uint64_t remote_every = 4;
  unsigned shards = 1;
  std::uint64_t seed = 42;
  std::vector<locks::lock_kind> kinds = {locks::lock_kind::spin, locks::lock_kind::blocking,
                                         locks::lock_kind::combined, locks::lock_kind::adaptive};
  unsigned jobs = 0;
};
inline const sharded_cs_shape kShardedCsCi{
    .group_nodes = 6, .threads = 4, .iterations = 30, .remote_every = 3, .shards = 4,
    .kinds = {locks::lock_kind::spin, locks::lock_kind::blocking, locks::lock_kind::adaptive},
    .jobs = 4};

/// Throws std::invalid_argument on a bad shape.
[[nodiscard]] std::vector<workload::sharded_cs_result> sharded_cs_sweep(
    const sharded_cs_shape& shape);

/// Open-loop serving with real ct server threads. One row per kServeCtKinds.
inline constexpr locks::lock_kind kServeCtKinds[] = {
    locks::lock_kind::spin, locks::lock_kind::blocking, locks::lock_kind::adaptive};

struct serve_ct_shape {
  unsigned groups = 0;  ///< 0 = the 4096-node fat-tree preset (64 x 64)
  unsigned group_nodes = 8;
  unsigned servers = 2;         ///< per group
  std::uint64_t requests = 50;  ///< per group
  std::uint64_t interarrival_us = 80;
  std::uint64_t remote_pct = 25;
  std::uint64_t service_us = 25;
  std::uint64_t burst_mult = 1;  ///< rate multiplier in every other 30 ms period
  unsigned shards = 8;
  std::uint64_t seed = 42;
  unsigned jobs = 0;
};
/// bench_serve_ct_bursty serves the light, then the bursty load on 8 x 8
/// nodes; bench_serve_ct_tail_1024 the bursty load on the 1024-node preset;
/// bench_serve_ct_fat4096 the binary's fat tree at half its requests.
inline constexpr serve_ct_shape kServeCtLightCi{.groups = 8, .servers = 8, .requests = 1500,
                                                .interarrival_us = 600, .remote_pct = 10,
                                                .service_us = 40, .shards = 4, .jobs = 1};
inline constexpr serve_ct_shape kServeCtBurstyCi{.groups = 8, .servers = 8, .requests = 1500,
                                                 .interarrival_us = 600, .remote_pct = 10,
                                                 .service_us = 40, .burst_mult = 8,
                                                 .shards = 4, .jobs = 1};
inline constexpr serve_ct_shape kServeCtTail1024Ci{
    .groups = 32, .group_nodes = 32, .servers = 32, .requests = 400, .interarrival_us = 600,
    .remote_pct = 10, .service_us = 40, .burst_mult = 8, .jobs = 1};
inline constexpr serve_ct_shape kServeCtFat4096Ci{.requests = 25, .jobs = 4};

/// The workload config of every row, lock kind aside.
[[nodiscard]] workload::ct_serve_config serve_ct_config_of(const serve_ct_shape& shape);
/// `on_row`, when set, sees each row as soon as its run ends, before the next
/// kind starts. Throws std::invalid_argument on a bad shape.
[[nodiscard]] std::vector<workload::ct_serve_result> serve_ct(
    const serve_ct_shape& shape,
    const std::function<void(locks::lock_kind, const workload::ct_serve_result&)>& on_row = {});

}  // namespace adx::perf
