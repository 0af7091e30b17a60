#include "telemetry/timeline.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "obs/json.hpp"

namespace adx::telemetry {
namespace {

/// Matches the tracer's ts/dur formatting (µs with ns resolution).
std::string us_fixed(double us) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", us);
  return buf;
}

char chrome_phase(std::uint8_t ph) {
  switch (static_cast<obs::phase>(ph)) {
    case obs::phase::complete: return 'X';
    case obs::phase::instant: return 'i';
    case obs::phase::counter: return 'C';
  }
  return '?';
}

void emit_trace_event(std::ostringstream& os, const std::string& run_id,
                      const trace_event_msg& e) {
  const char ph = chrome_phase(e.ph);
  os << "{\"name\":" << obs::json_str(e.name) << ",\"cat\":" << obs::json_str(e.cat)
     << ",\"ph\":\"" << ph
     << "\",\"ts\":" << us_fixed(static_cast<double>(e.ts_ns) / 1000.0);
  if (ph == 'X') {
    os << ",\"dur\":" << us_fixed(static_cast<double>(e.dur_ns) / 1000.0);
  }
  os << ",\"pid\":" << e.pid << ",\"tid\":" << e.tid;
  if (ph == 'i') os << ",\"s\":\"t\"";
  os << ",\"args\":{\"run\":" << obs::json_str(run_id);
  if (!e.a1_key.empty()) {
    os << ',' << obs::json_str(e.a1_key) << ':' << e.a1_value;
  }
  if (!e.a2_key.empty()) {
    os << ',' << obs::json_str(e.a2_key) << ':' << e.a2_value;
  }
  if (!e.detail_key.empty()) {
    os << ',' << obs::json_str(e.detail_key) << ':' << obs::json_str(e.detail);
  }
  os << "}}";
}

void emit_adapt_event(std::ostringstream& os, const std::string& run_id,
                      const adapt_msg& e) {
  os << "{\"name\":" << obs::json_str(e.object + ".adapt")
     << ",\"cat\":\"policy\",\"ph\":\"i\",\"ts\":"
     << us_fixed(static_cast<double>(e.ts_ns) / 1000.0)
     << ",\"pid\":0,\"tid\":0,\"s\":\"t\",\"args\":{\"run\":" << obs::json_str(run_id)
     << ",\"v_i\":" << e.sensor_value << ",\"policy\":" << obs::json_str(e.policy)
     << ",\"d_c\":" << obs::json_str(e.decision);
  if (!e.sensors.empty()) os << ",\"sensors\":" << obs::json_str(e.sensors);
  os << "}}";
}

}  // namespace

bool timeline::apply(stream_state& st, const message& m, std::string* err) {
  std::lock_guard<std::mutex> lk(mu_);

  if (const auto* hello = std::get_if<hello_msg>(&m)) {
    if (st.greeted) {
      if (err != nullptr) *err = "duplicate hello on stream";
      return false;
    }
    if (hello->version != kProtocolVersion) {
      if (err != nullptr) {
        *err = "unsupported protocol version " + std::to_string(hello->version);
      }
      return false;
    }
    st.greeted = true;
    st.run_id = hello->run_id;
    auto& run = runs_[st.run_id];
    if (run.producer.empty()) run.producer = hello->producer;
    return true;
  }

  if (!st.greeted) {
    if (err != nullptr) *err = "stream did not start with hello";
    return false;
  }
  auto& run = runs_[st.run_id];

  if (const auto* te = std::get_if<trace_event_msg>(&m)) {
    run.items.push_back({run.next_seq++, *te});
    return true;
  }
  if (const auto* mm = std::get_if<metrics_msg>(&m)) {
    run.latest_metrics = *mm;  // cumulative snapshot: latest wins
    run.has_metrics = true;
    return true;
  }
  if (const auto* am = std::get_if<adapt_msg>(&m)) {
    run.items.push_back({run.next_seq++, *am});
    ++run.adapt_total;
    ++run.decision_counts[am->decision];
    run.object_state[am->object] = am->decision;
    run.last_adapt = am->object + ": " + am->decision;
    return true;
  }
  if (const auto* pm = std::get_if<progress_msg>(&m)) {
    run.progress = *pm;
    return true;
  }
  if (const auto* rm = std::get_if<result_msg>(&m)) {
    ++run.results;
    if (rm->failed != 0) ++run.failures;
    return true;
  }
  if (const auto* bm = std::get_if<bye_msg>(&m)) {
    run.dropped = bm->dropped;
    run.done = true;
    return true;
  }
  if (err != nullptr) *err = "unhandled message type";
  return false;
}

void timeline::stream_closed(stream_state& st) {
  if (!st.greeted) return;
  std::lock_guard<std::mutex> lk(mu_);
  runs_[st.run_id].done = true;
}

std::string timeline::chrome_json() const {
  std::lock_guard<std::mutex> lk(mu_);

  struct entry {
    std::int64_t ts_ns;
    const std::string* run_id;
    std::uint64_t seq;
    const item* it;
  };
  std::vector<entry> order;
  for (const auto& [run_id, run] : runs_) {
    for (const auto& it : run.items) {
      const std::int64_t ts =
          std::holds_alternative<trace_event_msg>(it.ev)
              ? std::get<trace_event_msg>(it.ev).ts_ns
              : std::get<adapt_msg>(it.ev).ts_ns;
      order.push_back({ts, &run_id, it.seq, &it});
    }
  }
  // Total order independent of stream arrival interleaving: virtual time,
  // then run id, then the run's own sequence.
  std::sort(order.begin(), order.end(), [](const entry& a, const entry& b) {
    if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
    if (*a.run_id != *b.run_id) return *a.run_id < *b.run_id;
    return a.seq < b.seq;
  });

  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& e : order) {
    if (!first) os << ',';
    first = false;
    os << '\n';
    if (const auto* te = std::get_if<trace_event_msg>(&e.it->ev)) {
      emit_trace_event(os, *e.run_id, *te);
    } else {
      emit_adapt_event(os, *e.run_id, std::get<adapt_msg>(e.it->ev));
    }
  }
  os << "\n],\"displayTimeUnit\":\"ms\"";
  std::uint64_t dropped = 0;
  for (const auto& [_, run] : runs_) dropped += run.dropped;
  if (dropped > 0) {
    os << ",\"otherData\":{\"droppedEvents\":" << dropped << '}';
  }
  os << "}\n";
  return os.str();
}

std::size_t timeline::runs_seen() const {
  std::lock_guard<std::mutex> lk(mu_);
  return runs_.size();
}

std::size_t timeline::runs_done() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::size_t n = 0;
  for (const auto& [_, run] : runs_) n += run.done ? 1 : 0;
  return n;
}

timeline::snapshot_data timeline::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  snapshot_data out;
  for (const auto& [run_id, run] : runs_) {
    run_summary s;
    s.run_id = run_id;
    s.producer = run.producer;
    s.done = run.done;
    s.dropped = run.dropped;
    s.events = run.items.size();
    s.progress = run.progress;
    s.results = run.results;
    s.failures = run.failures;
    s.adapt_total = run.adapt_total;
    s.decision_counts = run.decision_counts;
    s.object_state = run.object_state;
    s.last_adapt = run.last_adapt;
    out.runs.push_back(std::move(s));

    if (run.has_metrics) {
      for (const auto& h : run.latest_metrics.histograms) {
        out.merged_histograms[h.name].merge(restore_histogram(h));
      }
    }
  }
  return out;
}

}  // namespace adx::telemetry
