#include "perf/bench_report.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"
#include "obs/json_reader.hpp"

namespace adx::perf {
namespace {

constexpr int kMaxVersion = 1;

/// Full-precision double formatting: virtual metrics must round-trip
/// bit-exactly through the committed baseline. %.17g is lossless for IEEE
/// doubles; integral values print without an exponent for readable diffs.
std::string num17(double v) {
  if (!std::isfinite(v)) return "null";
  if (v == static_cast<double>(static_cast<long long>(v)) && std::abs(v) < 1e15) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double relative_gap(double a, double b) {
  const double scale = std::max({1.0, std::abs(a), std::abs(b)});
  return std::abs(a - b) / scale;
}

}  // namespace

const scenario_summary* bench_report::find(std::string_view name) const {
  for (const auto& s : scenarios) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::string bench_report::to_json() const {
  using obs::json_str;
  std::ostringstream os;
  os << "{\n";
  os << "  \"bench_version\": " << version << ",\n";
  os << "  \"reps\": " << reps << ",\n";
  os << "  \"warmup\": " << warmup << ",\n";
  os << "  \"note\": " << json_str(note) << ",\n";
  os << "  \"scenarios\": [";
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const auto& s = scenarios[i];
    os << (i ? ",\n" : "\n") << "    {\"name\": " << json_str(s.name)
       << ", \"metrics\": [";
    for (std::size_t j = 0; j < s.metrics.size(); ++j) {
      const auto& m = s.metrics[j];
      os << (j ? ",\n" : "\n") << "      {\"name\": " << json_str(m.name)
         << ", \"unit\": " << json_str(m.unit)
         << ", \"clock\": " << json_str(to_string(m.clock));
      if (m.higher_better) os << ", \"dir\": \"up\"";
      os << ", \"median\": " << num17(m.stats.median)
         << ", \"iqr\": " << num17(m.stats.iqr)
         << ", \"min\": " << num17(m.stats.min) << ", \"reps\": " << m.reps << '}';
    }
    os << "\n    ]}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

bench_report bench_report::from_json(std::string_view text) {
  const auto root = obs::json_reader(text, "bench_report").parse();
  const auto& o = root.object();

  bench_report r;
  if (const auto* v = obs::json_find(o, "bench_version")) r.version = v->number<int>();
  if (r.version > kMaxVersion) {
    throw std::invalid_argument("bench_report: file has bench_version " +
                                std::to_string(r.version) + "; this build understands <= " +
                                std::to_string(kMaxVersion));
  }
  if (const auto* v = obs::json_find(o, "reps")) r.reps = v->number<unsigned>();
  if (const auto* v = obs::json_find(o, "warmup")) r.warmup = v->number<unsigned>();
  if (const auto* v = obs::json_find(o, "note")) r.note = v->str();
  if (const auto* ss = obs::json_find(o, "scenarios")) {
    for (const auto& sv : ss->array()) {
      const auto& so = sv.object();
      scenario_summary s;
      if (const auto* v = obs::json_find(so, "name")) s.name = v->str();
      if (s.name.empty()) throw std::invalid_argument("bench_report: scenario without name");
      if (const auto* ms = obs::json_find(so, "metrics")) {
        for (const auto& mv : ms->array()) {
          const auto& mo = mv.object();
          metric_summary m;
          if (const auto* v = obs::json_find(mo, "name")) m.name = v->str();
          if (const auto* v = obs::json_find(mo, "unit")) m.unit = v->str();
          if (const auto* v = obs::json_find(mo, "clock")) {
            const auto c = parse_metric_clock(v->str());
            if (!c) {
              throw std::invalid_argument("bench_report: unknown clock '" + v->str() +
                                          "' (valid: virtual wall)");
            }
            m.clock = *c;
          }
          if (const auto* v = obs::json_find(mo, "dir")) {
            if (v->str() != "up" && v->str() != "down") {
              throw std::invalid_argument("bench_report: unknown dir '" + v->str() +
                                          "' (valid: up down)");
            }
            m.higher_better = v->str() == "up";
          }
          if (const auto* v = obs::json_find(mo, "median")) m.stats.median = v->number<double>();
          if (const auto* v = obs::json_find(mo, "iqr")) m.stats.iqr = v->number<double>();
          if (const auto* v = obs::json_find(mo, "min")) m.stats.min = v->number<double>();
          if (const auto* v = obs::json_find(mo, "reps")) m.reps = v->number<unsigned>();
          s.metrics.push_back(std::move(m));
        }
      }
      r.scenarios.push_back(std::move(s));
    }
  }
  return r;
}

tolerance_spec tolerance_spec::parse(std::string_view text) {
  tolerance_spec out;
  if (text.empty()) return out;
  std::size_t pos = 0;
  bool first = true;
  while (pos <= text.size()) {
    const auto comma = text.find(',', pos);
    const auto item = text.substr(pos, comma == std::string_view::npos ? std::string_view::npos
                                                                       : comma - pos);
    pos = comma == std::string_view::npos ? text.size() + 1 : comma + 1;
    if (item.empty()) continue;
    const auto eq = item.find('=');
    const auto parse_frac = [&](std::string_view s) {
      try {
        std::size_t used = 0;
        const double v = std::stod(std::string(s), &used);
        if (used != s.size() || !(v >= 0) || v > 100) throw std::invalid_argument("range");
        return v;
      } catch (const std::exception&) {
        throw std::invalid_argument("tolerance: bad fraction '" + std::string(s) +
                                    "' (expected e.g. 0.25)");
      }
    };
    if (eq == std::string_view::npos) {
      if (!first) {
        throw std::invalid_argument(
            "tolerance: the global fraction must come first (got '" + std::string(item) +
            "')");
      }
      out.wall_default = parse_frac(item);
    } else {
      const auto name = item.substr(0, eq);
      if (name.empty()) throw std::invalid_argument("tolerance: empty metric name");
      out.per_metric.emplace(std::string(name), parse_frac(item.substr(eq + 1)));
    }
    first = false;
  }
  return out;
}

std::vector<std::string> validate_tolerance(const tolerance_spec& tol,
                                            const bench_report& baseline) {
  std::vector<std::string> errors;
  for (const auto& [name, frac] : tol.per_metric) {
    (void)frac;
    bool known = false;
    for (const auto& s : baseline.scenarios) {
      for (const auto& m : s.metrics) {
        if (m.name != name) continue;
        known = true;
        if (m.clock == metric_clock::virtual_time) {
          errors.push_back("metric '" + name +
                           "' is measured on the deterministic virtual clock; an exact "
                           "match is required and --tolerance does not apply to it");
        }
      }
    }
    if (!known) {
      errors.push_back("metric '" + name + "' does not appear in the baseline");
    }
  }
  return errors;
}

const char* to_string(finding_kind k) {
  switch (k) {
    case finding_kind::missing_scenario: return "missing-scenario";
    case finding_kind::missing_metric: return "missing-metric";
    case finding_kind::virtual_divergence: return "virtual-divergence";
    case finding_kind::wall_regression: return "wall-regression";
    case finding_kind::wall_improvement: return "wall-improvement";
    case finding_kind::new_entry: return "new-entry";
  }
  return "?";
}

std::string finding::describe() const {
  std::ostringstream os;
  os << to_string(kind) << " scenario=" << scenario;
  if (!metric.empty()) os << " metric=" << metric;
  switch (kind) {
    case finding_kind::virtual_divergence:
      os << " baseline=" << num17(baseline) << " current=" << num17(current)
         << " (deterministic metric; regenerate the baseline if this change is intended)";
      break;
    case finding_kind::wall_regression:
    case finding_kind::wall_improvement: {
      const double pct = baseline != 0 ? 100.0 * (current - baseline) / baseline : 0;
      char buf[32];
      std::snprintf(buf, sizeof buf, "%+.1f%%", pct);
      os << " baseline=" << num17(baseline) << " current=" << num17(current) << " (" << buf
         << ", allowed bound " << num17(limit) << ')';
      break;
    }
    case finding_kind::missing_scenario:
    case finding_kind::missing_metric:
      os << " (present in baseline, absent from this run)";
      break;
    case finding_kind::new_entry: os << " (not in baseline; informational)"; break;
  }
  return os.str();
}

std::vector<std::string> compare_result::regressed_scenarios() const {
  std::vector<std::string> out;
  for (const auto& f : findings) {
    if (!f.fatal()) continue;
    bool seen = false;
    for (const auto& n : out) seen = seen || n == f.scenario;
    if (!seen) out.push_back(f.scenario);
  }
  return out;
}

compare_result compare_reports(const bench_report& current, const bench_report& baseline,
                               const tolerance_spec& tol) {
  compare_result out;
  for (const auto& bs : baseline.scenarios) {
    const auto* cs = current.find(bs.name);
    if (cs == nullptr) {
      out.findings.push_back({finding_kind::missing_scenario, bs.name, "", 0, 0, 0});
      continue;
    }
    for (const auto& bm : bs.metrics) {
      const metric_summary* cm = nullptr;
      for (const auto& m : cs->metrics) {
        if (m.name == bm.name) cm = &m;
      }
      if (cm == nullptr) {
        out.findings.push_back({finding_kind::missing_metric, bs.name, bm.name, 0, 0, 0});
        continue;
      }
      // Every comparison below is false on NaN, so a non-finite median (or a
      // wall metric's non-finite IQR) on either side would pass silently:
      // it is a failure of its own.
      const bool finite = std::isfinite(cm->stats.median) && std::isfinite(bm.stats.median);
      if (bm.clock == metric_clock::virtual_time) {
        // Exact: the baseline stores full precision, the simulator is
        // deterministic, so the only legitimate gap is zero. The epsilon
        // guards against a future emitter that rounds, nothing else.
        if (!finite || relative_gap(cm->stats.median, bm.stats.median) > 1e-12) {
          out.findings.push_back({finding_kind::virtual_divergence, bs.name, bm.name,
                                  bm.stats.median, cm->stats.median, bm.stats.median});
        }
        continue;
      }
      // Wall clock: tolerance plus an IQR-scaled band on top. The band uses
      // the larger of the two runs' IQRs so a noisy host widens its own gate
      // rather than tripping it. `dir` decides which side of the band is the
      // regression: higher is worse for times, lower is worse for rates.
      const double frac = tol.for_metric(bm.name);
      const double band = 1.5 * std::max(bm.stats.iqr, cm->stats.iqr);
      const double upper = bm.stats.median * (1.0 + frac) + band;
      const double lower = bm.stats.median * (1.0 - frac) - band;
      if (!finite || !std::isfinite(bm.stats.iqr) || !std::isfinite(cm->stats.iqr)) {
        out.findings.push_back({finding_kind::wall_regression, bs.name, bm.name,
                                bm.stats.median, cm->stats.median, upper});
      } else if (cm->stats.median > upper) {
        out.findings.push_back({bm.higher_better ? finding_kind::wall_improvement
                                                 : finding_kind::wall_regression,
                                bs.name, bm.name, bm.stats.median, cm->stats.median, upper});
      } else if (cm->stats.median < lower) {
        out.findings.push_back({bm.higher_better ? finding_kind::wall_regression
                                                 : finding_kind::wall_improvement,
                                bs.name, bm.name, bm.stats.median, cm->stats.median, lower});
      }
    }
    for (const auto& m : cs->metrics) {
      bool in_baseline = false;
      for (const auto& bm : bs.metrics) in_baseline = in_baseline || bm.name == m.name;
      if (!in_baseline) {
        out.findings.push_back({finding_kind::new_entry, bs.name, m.name, 0,
                                m.stats.median, 0});
      }
    }
  }
  for (const auto& cs : current.scenarios) {
    if (baseline.find(cs.name) == nullptr) {
      out.findings.push_back({finding_kind::new_entry, cs.name, "", 0, 0, 0});
    }
  }
  return out;
}

}  // namespace adx::perf
