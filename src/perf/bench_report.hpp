// BENCH.json — the machine-readable perf trajectory.
//
// A bench_report is what one `adx-bench` invocation measured: per scenario,
// per metric, the median/IQR/min over R repetitions, each metric tagged with
// its clock. The file is versioned, emitted deterministically (stable key
// order, fixed number formatting) so committed baselines diff cleanly, and
// round-trips exactly: virtual-clock metrics are written with full double
// precision because the comparison demands bit-exact equality on them.
//
// compare_reports() implements the regression gate:
//   * virtual-clock metrics — EXACT match required, both directions. The
//     simulator is deterministic; any change means simulated behaviour
//     changed and the baseline must be consciously regenerated.
//   * wall-clock metrics — current median may exceed the baseline median by
//     tolerance * baseline + an IQR-scaled noise band; only slowdowns beyond
//     that fail. Improvements and new metrics are reported, never fatal.
//   * a non-finite value on either side is fatal under the metric's clock
//     (NaN would otherwise compare false against every bound and pass).
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "perf/scenario.hpp"

namespace adx::perf {

struct bench_report {
  int version{1};
  unsigned reps{0};
  unsigned warmup{0};
  std::string note;  ///< free text: toolchain, host, provenance
  std::vector<scenario_summary> scenarios;

  [[nodiscard]] const scenario_summary* find(std::string_view name) const;

  /// Deterministic multi-line JSON (committed-baseline friendly).
  [[nodiscard]] std::string to_json() const;

  /// Parses to_json() output. Unknown keys are ignored; malformed input
  /// throws std::invalid_argument. Rejects bench_version newer than this
  /// build understands.
  [[nodiscard]] static bench_report from_json(std::string_view text);
};

/// Wall-metric tolerance configuration. `per_metric` overrides the default
/// for individual metric names.
struct tolerance_spec {
  double wall_default{0.25};
  std::map<std::string, double, std::less<>> per_metric;

  /// Parses "0.3" (global) or "0.3,wall_ns=0.5,nodes_per_sec=0.4" (global
  /// plus per-metric overrides; the leading global is optional). Fractions,
  /// not percent. Throws std::invalid_argument on malformed input.
  [[nodiscard]] static tolerance_spec parse(std::string_view text);

  [[nodiscard]] double for_metric(std::string_view name) const {
    const auto it = per_metric.find(name);
    return it == per_metric.end() ? wall_default : it->second;
  }
};

/// Validates that no per-metric tolerance names a deterministic
/// (virtual-clock) metric of `baseline` — tolerance on those is refused, not
/// silently accepted. Returns error lines; empty means valid.
[[nodiscard]] std::vector<std::string> validate_tolerance(const tolerance_spec& tol,
                                                          const bench_report& baseline);

enum class finding_kind : std::uint8_t {
  missing_scenario,    ///< baseline scenario absent from current run (fail)
  missing_metric,      ///< baseline metric absent from current run (fail)
  virtual_divergence,  ///< deterministic metric changed (fail)
  wall_regression,     ///< wall metric beyond the tolerance band (fail)
  wall_improvement,    ///< wall metric faster beyond the band (informational)
  new_entry,           ///< scenario/metric only in current (informational)
};

[[nodiscard]] const char* to_string(finding_kind k);

struct finding {
  finding_kind kind{finding_kind::new_entry};
  std::string scenario;
  std::string metric;  ///< empty for scenario-level findings
  double baseline{0};
  double current{0};
  double limit{0};  ///< the allowed bound that was exceeded (wall findings)

  [[nodiscard]] bool fatal() const {
    return kind != finding_kind::wall_improvement && kind != finding_kind::new_entry;
  }
  [[nodiscard]] std::string describe() const;
};

struct compare_result {
  std::vector<finding> findings;

  [[nodiscard]] bool failed() const {
    for (const auto& f : findings) {
      if (f.fatal()) return true;
    }
    return false;
  }
  /// Names of scenarios with at least one fatal finding, deduplicated, in
  /// first-seen order — what the CLI prints and CI greps.
  [[nodiscard]] std::vector<std::string> regressed_scenarios() const;
};

[[nodiscard]] compare_result compare_reports(const bench_report& current,
                                             const bench_report& baseline,
                                             const tolerance_spec& tol);

}  // namespace adx::perf
