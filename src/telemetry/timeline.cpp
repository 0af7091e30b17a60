#include "telemetry/timeline.hpp"

#include <algorithm>
#include <sstream>

#include "obs/chrome_event.hpp"

namespace adx::telemetry {
namespace {

void emit_trace_event(std::ostringstream& os, const std::string& run_id,
                      const trace_event_msg& e) {
  obs::chrome_event_writer w(os, e.name, e.cat, static_cast<obs::phase>(e.ph), e.ts_ns,
                             e.dur_ns, e.pid, e.tid);
  w.str_arg("run", run_id);
  if (!e.a1_key.empty()) w.arg(e.a1_key, e.a1_value);
  if (!e.a2_key.empty()) w.arg(e.a2_key, e.a2_value);
  if (!e.detail_key.empty()) w.str_arg(e.detail_key, e.detail);
  w.end();
}

void emit_adapt_event(std::ostringstream& os, const std::string& run_id,
                      const adapt_msg& e) {
  obs::chrome_event_writer w(os, e.object + ".adapt", "policy", obs::phase::instant, e.ts_ns,
                             0, 0, 0);
  w.str_arg("run", run_id)
      .arg("v_i", e.sensor_value)
      .str_arg("policy", e.policy)
      .str_arg("d_c", e.decision);
  if (!e.sensors.empty()) w.str_arg("sensors", e.sensors);
  w.end();
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
