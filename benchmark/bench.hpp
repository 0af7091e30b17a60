// adx-benchmark: the repo benchmark's workloads, layer probes and reports.
//
// Every workload drives the simulator through its public entry points
// (workload::run_ct_serve, workload::run_sharded_cs, tsp::solve_parallel) and
// checks each result against a reference. The end-to-end numbers come from
// untraced reps; a separate traced rep records one span per public call and
// feeds the per-layer report together with the probes below.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "locks/factory.hpp"
#include "obs/tracer.hpp"
#include "perf/metric.hpp"
#include "sim/machine_config.hpp"

namespace adx::benchmark {

/// Host nanoseconds since the process started; every span uses this clock.
[[nodiscard]] std::uint64_t host_ns();

/// The modules under src/ that the per-layer report names. A span's tid is
/// the index of its layer in this list.
[[nodiscard]] std::uint32_t layer_tid(std::string_view layer);

/// One public call the benchmark made into a layer.
struct call_record {
  std::string name;       ///< span name, e.g. "run_ct_serve.spin"
  const char* layer{""};  ///< module the call enters: "workload", "tsp", ...
  std::string tag;        ///< lock kind or TSP variant the call ran
  std::uint64_t start_ns{0};
  double host_s{0};
  std::uint64_t items{0};
  std::uint64_t events{0};
};

/// Records `c` as a complete span on `tr` (no-op when `tr` is null).
void record_span(obs::tracer* tr, std::uint32_t pid, const call_record& c);

/// Runs `fn`, filling `c`'s start and host duration; returns what `fn` does.
template <typename F>
auto timed(call_record& c, F&& fn) {
  c.start_ns = host_ns();
  auto out = fn();
  c.host_s = static_cast<double>(host_ns() - c.start_ns) / 1e9;
  return out;
}

/// Structural counts of one rep, summed over its calls. Every field is a pure
/// function of the inputs (virtual), so they repeat exactly.
struct layer_counts {
  std::uint64_t items{0};
  std::uint64_t events{0};
  std::uint64_t windows{0};
  std::uint64_t cross_sends{0};
  std::uint64_t callback_spills{0};
  std::uint64_t blocks{0};
  std::uint64_t posts{0};
  std::uint64_t policy_ticks{0};
  std::uint64_t tsp_ops{0};
};

/// One rep: every public call of the workload, each checked.
struct rep_outcome {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  double host_s{0};
  layer_counts counts;
  std::vector<call_record> calls;
  /// The rep's virtual results, named per call; perf::run_scenario requires
  /// them to repeat exactly across reps.
  std::vector<perf::metric_sample> virtual_results;
};

/// What the probes need to know to price a workload's layers.
struct probe_spec {
  sim::machine_config machine;
  unsigned shards{1};
  unsigned workers{1};
  bool uses_domain{false};
  /// Simulated threads and arrival sources per event queue: the pending-set
  /// size the event-queue probe reproduces.
  std::size_t pending{1};
  std::vector<locks::lock_kind> kinds;
  locks::lock_params params;
};

/// A failure the self-test plants to prove the checks count it.
enum class plant : std::uint8_t { none, wrong_optimum, dropped_request, perturbed_reference };

/// `full` is the benchmark's size; `tiny` is about 1% of it (self-test).
enum class size : std::uint8_t { full, tiny };

class workload {
 public:
  virtual ~workload() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;
  /// Builds the inputs, starts the executor and computes the reference
  /// results the checks use.
  virtual void setup() = 0;
  /// Runs every public call once and checks it. `tr` (nullable) receives one
  /// span per call as it completes.
  [[nodiscard]] virtual rep_outcome rep(obs::tracer* tr, std::uint32_t pid) = 0;
  /// Re-runs the reference computations, timed (traced phase only).
  [[nodiscard]] virtual std::vector<call_record> reference_calls(obs::tracer* tr,
                                                                 std::uint32_t pid) = 0;
  [[nodiscard]] virtual probe_spec probes() const = 0;
  /// Host cost of one public call with an enabled obs::tracer against the
  /// same call without it, (traced - plain) / plain; empty where the
  /// workload's entry point takes no tracer.
  [[nodiscard]] virtual std::optional<double> tracer_overhead_share() { return std::nullopt; }
};

[[nodiscard]] std::span<const std::string_view> workload_names();

/// Null when `name` is not a workload.
[[nodiscard]] std::unique_ptr<workload> make_workload(std::string_view name,
                                                      std::uint64_t seed, size s,
                                                      plant p = plant::none);

/// One probe's per-op host cost over several loops (one span each).
struct probe_result {
  std::string name;
  std::string unit;
  std::vector<double> values;
};

/// Runs every probe that applies to `spec`, several timed loops each; every
/// loop is one span on `tr`.
[[nodiscard]] std::vector<probe_result> run_probes(const probe_spec& spec, size s,
                                                   obs::tracer* tr, std::uint32_t pid);

}  // namespace adx::benchmark
