// The adx-bench scenario registry.
//
// A scenario is a named, self-contained measurement: it runs one of the
// paper's table/figure experiments (or an ablation / pure-simulator
// microbench) at a fixed seed and reduced-but-representative shape, and
// returns its metrics. Where a bench binary prints the same experiment, the
// scenario carries its name (bench_table7_cycle_adaptive, bench_fig1_cs_sweep,
// ...; the three bench_serve_ct_* scenarios share bench_serve_ct) and both
// run one function from perf/experiments.hpp, so a regression report points
// straight at the binary to rerun by hand. The sim_* churns, bench_abl_policy,
// bench_hashmap_* and bench_monitor_delegation have no binary.
//
// The runner (run_scenario) layers warmup + R timed repetitions on top of
// each scenario body, measures host wall time around every repetition, and
// folds the per-repetition samples into median/IQR/min summaries.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "exec/job_executor.hpp"
#include "perf/metric.hpp"

namespace adx::perf {

/// What one repetition of a scenario body reports. Wall time around the body
/// is measured by the runner; bodies only report virtual-clock metrics plus
/// any wall-derived rates they want tracked (tagged metric_clock::wall).
struct scenario_result {
  std::vector<metric_sample> metrics;
};

struct scenario {
  std::string name;         ///< bench-binary-style identifier
  std::string description;  ///< one line for --list
  std::function<scenario_result()> body;
};

/// All registered scenarios, in registration order. Names are unique.
[[nodiscard]] const std::vector<scenario>& all_scenarios();

/// Finds a scenario by name; null when unknown.
[[nodiscard]] const scenario* find_scenario(std::string_view name);

/// One summarized scenario run, as recorded in BENCH.json.
struct scenario_summary {
  std::string name;
  std::vector<metric_summary> metrics;
};

/// Runs `sc` with `warmup` discarded repetitions followed by `reps` measured
/// ones and summarizes every reported metric plus the implicit `wall_ns`
/// (host wall time of one repetition, clock=wall). Virtual-clock metrics are
/// checked for cross-repetition determinism; a mismatch throws
/// std::logic_error naming the offending metric — that would mean simulated
/// behaviour depends on host timing, which the simulator forbids.
[[nodiscard]] scenario_summary run_scenario(const scenario& sc, unsigned reps,
                                            unsigned warmup);

/// One scenario's outcome in a batch run: either a summary or the error that
/// stopped it (empty = success).
struct scenario_outcome {
  scenario_summary summary;
  std::string error;

  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Progress hooks for run_scenarios. With several workers the callbacks fire
/// from pool threads, possibly concurrently — synchronize any shared output.
struct scenario_progress {
  std::function<void(const scenario&)> started;
  std::function<void(const scenario&, const scenario_outcome&)> finished;
};

/// Runs every scenario in `list` through run_scenario, fanning independent
/// scenarios out across `ex`'s workers. Wall-clock repetitions stay
/// sequential *within* each scenario (one scenario never times another's
/// reps against itself on the same worker), and outcomes are collected by
/// list index, so the report content — and every virtual-clock metric in it —
/// is identical to a sequential run for any worker count. Wall metrics keep
/// their usual noise; measure committed baselines with one worker.
[[nodiscard]] std::vector<scenario_outcome> run_scenarios(
    const std::vector<const scenario*>& list, unsigned reps, unsigned warmup,
    exec::job_executor& ex, const scenario_progress& progress = {});

}  // namespace adx::perf
