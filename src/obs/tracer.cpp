#include "obs/tracer.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "obs/chrome_event.hpp"

namespace adx::obs {

namespace {

/// Indices of events sorted by timestamp, stable in recording order.
std::vector<std::size_t> by_time(const std::vector<event>& events) {
  std::vector<std::size_t> idx(events.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return events[a].ts.ns < events[b].ts.ns;
  });
  return idx;
}

}  // namespace

std::string tracer::chrome_json() const {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const auto i : by_time(events_)) {
    const auto& e = events_[i];
    if (!first) os << ',';
    first = false;
    os << '\n';
    chrome_event_writer w(os, e.name, e.cat, e.ph, e.ts.ns, e.dur.ns, e.pid, e.tid);
    if (e.a1.present()) w.arg(e.a1.key, e.a1.value);
    if (e.a2.present()) w.arg(e.a2.key, e.a2.value);
    if (e.detail_key != nullptr) w.str_arg(e.detail_key, e.detail);
    w.end();
  }
  os << "\n],\"displayTimeUnit\":\"ms\"";
  if (dropped_ > 0) {
    os << ",\"otherData\":{\"droppedEvents\":" << dropped_ << '}';
  }
  os << "}\n";
  return os.str();
}

std::string tracer::csv() const {
  std::ostringstream os;
  os << "ph,ts_us,dur_us,pid,tid,cat,name,args\n";
  for (const auto i : by_time(events_)) {
    const auto& e = events_[i];
    os << to_chrome_phase(e.ph) << ',' << chrome_us(e.ts.ns) << ','
       << (e.ph == phase::complete ? chrome_us(e.dur.ns) : std::string{}) << ','
       << e.pid << ',' << e.tid << ',' << e.cat << ',' << e.name << ',';
    const char* sep = "";
    if (e.a1.present()) {
      os << sep << e.a1.key << '=' << e.a1.value;
      sep = ";";
    }
    if (e.a2.present()) {
      os << sep << e.a2.key << '=' << e.a2.value;
      sep = ";";
    }
    if (e.detail_key != nullptr) os << sep << e.detail_key << '=' << e.detail;
    os << '\n';
  }
  return os.str();
}

}  // namespace adx::obs
