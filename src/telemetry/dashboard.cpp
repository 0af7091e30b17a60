#include "telemetry/dashboard.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace adx::telemetry {
namespace {

std::string fmt_ns(std::uint64_t ns) {
  const auto v = static_cast<double>(ns);
  char buf[32];
  if (v >= 1e9) {
    std::snprintf(buf, sizeof buf, "%.2fs", v / 1e9);
  } else if (v >= 1e6) {
    std::snprintf(buf, sizeof buf, "%.2fms", v / 1e6);
  } else if (v >= 1e3) {
    std::snprintf(buf, sizeof buf, "%.1fus", v / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%lluns", static_cast<unsigned long long>(ns));
  }
  return buf;
}

std::string pad(std::string s, std::size_t w) {
  if (s.size() < w) s.append(w - s.size(), ' ');
  return s;
}

}  // namespace

std::string render_dashboard(const timeline::snapshot_data& snap,
                             const dashboard_options& opt) {
  const char* bold = opt.color ? "\x1b[1m" : "";
  const char* dim = opt.color ? "\x1b[2m" : "";
  const char* reset = opt.color ? "\x1b[0m" : "";

  std::ostringstream os;
  os << bold << "adx-telemetryd — " << snap.runs.size() << " run(s)" << reset << "\n";
  os << "----------------------------------------------------------------------\n";

  for (const auto& r : snap.runs) {
    os << bold << r.run_id << reset << "  [" << r.producer << "]  "
       << (r.done ? "done" : "live");
    if (r.dropped > 0) os << "  dropped=" << r.dropped;
    os << "\n";
    if (r.progress.total > 0) {
      const double pct =
          100.0 * static_cast<double>(r.progress.done) / static_cast<double>(r.progress.total);
      char buf[32];
      std::snprintf(buf, sizeof buf, "%5.1f%%", pct);
      os << "  progress: " << r.progress.done << "/" << r.progress.total << " (" << buf
         << ")";
      if (!r.progress.label.empty()) os << "  " << r.progress.label;
      os << "\n";
    }
    if (r.results > 0) {
      os << "  results: " << r.results;
      if (r.failures > 0) os << " (" << r.failures << " FAILED)";
      os << "\n";
    }
    os << "  events: " << r.events << "  adaptations: " << r.adapt_total;
    if (!r.last_adapt.empty()) os << "  last: " << r.last_adapt;
    os << "\n";
    if (!r.decision_counts.empty()) {
      os << "  decisions:";
      for (const auto& [decision, count] : r.decision_counts) {
        os << "  " << decision << "×" << count;
      }
      os << "\n";
    }
    if (!r.object_state.empty()) {
      os << "  occupancy:";
      // Which configuration each adaptive object sits in right now — the
      // live analog of the paper's "which lock kind won" tables.
      std::map<std::string, std::uint64_t> by_kind;
      for (const auto& [_, kind] : r.object_state) ++by_kind[kind];
      for (const auto& [kind, n] : by_kind) os << "  " << kind << "=" << n;
      os << "\n";
    }
  }

  if (!snap.merged_histograms.empty()) {
    os << "----------------------------------------------------------------------\n";
    os << bold << "merged latency (all runs)" << reset << "\n";
    // Busiest histograms first; cap the table for small terminals.
    std::vector<const std::pair<const std::string, obs::log_histogram>*> rows;
    for (const auto& kv : snap.merged_histograms) {
      if (kv.second.count() > 0) rows.push_back(&kv);
    }
    std::stable_sort(rows.begin(), rows.end(), [](const auto* a, const auto* b) {
      return a->second.count() > b->second.count();
    });
    if (rows.size() > opt.max_histograms) rows.resize(opt.max_histograms);
    os << dim << pad("  name", 42) << pad("count", 10) << pad("p50", 10)
       << pad("p99", 10) << "max" << reset << "\n";
    for (const auto* kv : rows) {
      const auto& h = kv->second;
      os << "  " << pad(kv->first, 40) << pad(std::to_string(h.count()), 10)
         << pad(fmt_ns(h.p50()), 10) << pad(fmt_ns(h.p99()), 10) << fmt_ns(h.max())
         << "\n";
    }
  }
  return os.str();
}

}  // namespace adx::telemetry
