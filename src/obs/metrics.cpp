#include "obs/metrics.hpp"

#include <sstream>

#include "obs/json.hpp"

namespace adx::obs {

std::string metrics::to_json() const {
  std::ostringstream os;
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) os << ',';
    first = false;
    os << json_str(name) << ':' << c.value();
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) os << ',';
    first = false;
    os << json_str(name) << ':' << json_num(g.value());
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) os << ',';
    first = false;
    os << json_str(name) << ":{\"count\":" << h.count() << ",\"min\":" << h.min()
       << ",\"max\":" << h.max() << ",\"mean\":" << json_num(h.mean())
       << ",\"p50\":" << h.p50() << ",\"p90\":" << h.quantile(0.90)
       << ",\"p99\":" << h.p99() << '}';
  }
  os << "}}\n";
  return os.str();
}

void export_access_counts(const sim::access_counts& c, metrics& m,
                          std::string_view prefix) {
  const std::string p(prefix);
  m.get_counter(p + ".local_reads").set(c.local_reads);
  m.get_counter(p + ".local_writes").set(c.local_writes);
  m.get_counter(p + ".local_rmws").set(c.local_rmws);
  m.get_counter(p + ".remote_reads").set(c.remote_reads);
  m.get_counter(p + ".remote_writes").set(c.remote_writes);
  m.get_counter(p + ".remote_rmws").set(c.remote_rmws);
  m.get_counter(p + ".reads").set(c.reads());
  m.get_counter(p + ".writes").set(c.writes());
  m.get_counter(p + ".rmws").set(c.rmws());
  m.get_counter(p + ".total").set(c.total());
}

}  // namespace adx::obs
