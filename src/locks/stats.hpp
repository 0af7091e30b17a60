// Per-lock instrumentation: acquisition counts, waiting-time accumulation,
// the locking-pattern trace behind the paper's Figures 4-9 (number of
// threads waiting on the lock, over virtual time), always-on wait/hold-time
// histograms, and the structured-event hooks of the obs subsystem.
//
// Every lock implementation reports its state transitions here with the
// (time, thread) identity of the transition, so attaching an obs::tracer
// turns any lock into a source of Chrome-trace spans without touching the
// lock's own code. All recording is host-side: it charges no virtual time
// and never perturbs the simulation, enabled or not.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "locks/observer.hpp"
#include "obs/log_histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"
#include "telemetry/hook.hpp"

namespace adx::locks {

class lock_stats {
 public:
  void on_request(sim::vtime /*at*/, std::uint32_t /*tid*/) { ++requests_; }

  void on_contended(sim::vtime at, std::uint32_t tid) {
    ++contended_;
    if (tracing()) {
      tracer_->instant(name_contend_, "lock", at, pid_, tid);
    }
    if (observer_) observer_->on_contended(*owner_, at, tid);
  }

  void on_acquired(sim::vtime at, sim::vdur waited, std::uint32_t tid) {
    ++acquisitions_;
    wait_time_.add(waited.us());
    wait_hist_.add(static_cast<std::uint64_t>(waited.ns));
    held_since_ = at;
    // Release-to-acquire gap: with a release already recorded this is the
    // handoff latency of the grant (dispatch + wakeup under direct handoff,
    // re-compete delay under barging). Feeds the `handoff-latency` sensor.
    if (releases_ > 0) last_handoff_ = at - last_release_at_;
    if (tracing()) {
      tracer_->complete(name_acquire_, "lock", sim::vtime{at.ns - waited.ns},
                        waited, pid_, tid);
    }
    if (observer_) observer_->on_acquired(*owner_, at, waited, tid);
  }

  void on_release(sim::vtime at, std::uint32_t tid) {
    ++releases_;
    const auto held = at - held_since_;
    held_hist_.add(static_cast<std::uint64_t>(held.ns));
    last_held_ = held;
    last_release_at_ = at;
    if (tracing()) {
      tracer_->complete(name_held_, "lock", held_since_, held, pid_, tid);
    }
    if (observer_) observer_->on_release(*owner_, at, tid);
  }

  void on_spin_iteration() { ++spin_iterations_; }

  void on_block(sim::vtime at, std::uint32_t tid) {
    ++blocks_;
    if (tracing()) {
      tracer_->instant(name_block_, "lock", at, pid_, tid);
    }
    if (observer_) observer_->on_block(*owner_, at, tid);
  }

  void on_handoff(sim::vtime at, std::uint32_t to_tid) {
    ++handoffs_;
    if (tracing()) {
      tracer_->instant(name_handoff_, "lock", at, pid_, to_tid,
                       {"to_tid", to_tid});
    }
    if (observer_) observer_->on_handoff(*owner_, at, to_tid);
  }

  /// A reconfiguration decision d_c, annotated with the sensor value v_i
  /// that caused it — what makes a pattern figure *explainable*. When the
  /// deciding policy identifies itself, the trace detail also carries the
  /// policy name and the full sensor vector it decided on.
  void on_reconfigure(sim::vtime at, std::uint32_t tid, std::int64_t sensor_value,
                      std::string decision, std::string_view policy_name = {},
                      std::string_view sensors = {}) {
    ++reconfigures_;
    if (observer_) observer_->on_reconfigure(*owner_, at, tid, decision);
    // Live telemetry: every adaptation decision in the process funnels
    // through here (engine decisions, async pumps, coordinator and federated
    // demotions), so this single hook streams them all. One relaxed load
    // when telemetry is off.
    if (telemetry::enabled()) {
      telemetry::publish_adapt_event(at.ns,
                                     trace_name_.empty() ? "lock" : trace_name_,
                                     policy_name, decision, sensors, sensor_value);
    }
    if (tracing()) {
      if (!policy_name.empty()) {
        decision += " policy=";
        decision += policy_name;
        if (!sensors.empty()) {
          decision += " sensors=";
          decision += sensors;
        }
      }
      tracer_->instant(name_reconfigure_, "lock", at, pid_, tid,
                       {"v_i", sensor_value}, {}, "d_c", std::move(decision));
    }
  }

  /// Ψ transition brackets: reconfigurable locks call these around the
  /// atomic attribute-set swap so observers can check nothing slipped in.
  void on_psi_begin(sim::vtime at) {
    if (observer_) observer_->on_psi_begin(*owner_, at);
  }
  void on_psi_end(sim::vtime at) {
    if (observer_) observer_->on_psi_end(*owner_, at);
  }

  /// Records the current number of waiting threads; feeds the pattern trace
  /// and the tracer's counter track if attached.
  void on_waiting_changed(sim::vtime at, std::int64_t waiting) {
    peak_waiting_ = waiting > peak_waiting_ ? waiting : peak_waiting_;
    if (pattern_) pattern_->record(at, waiting);
    if (tracing()) {
      tracer_->counter(name_waiting_, "lock", at, pid_, waiting);
    }
  }

  /// Attaches a locking-pattern trace (not owned).
  void attach_pattern_trace(sim::trace* t) { pattern_ = t; }
  [[nodiscard]] sim::trace* pattern_trace() const { return pattern_; }

  /// Attaches a structured-event tracer (not owned). `name` labels this
  /// lock's events; `pid` is the track the events land on (by convention the
  /// lock's home node). Event names are precomputed here so the recording
  /// fast path never builds strings.
  void attach_tracer(obs::tracer* t, std::string name, std::uint32_t pid) {
    tracer_ = t;
    pid_ = pid;
    name_held_ = name + ".held";
    name_acquire_ = name + ".acquire";
    name_contend_ = name + ".contend";
    name_block_ = name + ".block";
    name_handoff_ = name + ".handoff";
    name_reconfigure_ = name + ".reconfigure";
    name_waiting_ = name + ".waiting";
    trace_name_ = std::move(name);
  }
  [[nodiscard]] obs::tracer* tracer() const { return tracer_; }
  [[nodiscard]] const std::string& trace_name() const { return trace_name_; }

  /// Attaches a lock-event observer (not owned; null detaches). `owner` is
  /// the lock these stats belong to — passed back on every callback so one
  /// observer can watch many locks.
  void attach_observer(lock_object* owner, lock_event_observer* o) {
    owner_ = owner;
    observer_ = o;
  }
  [[nodiscard]] lock_event_observer* observer() const { return observer_; }

  /// Snapshots counters and distributions into a metrics registry under
  /// `prefix` (e.g. "lock.qlock").
  void export_metrics(obs::metrics& m, const std::string& prefix) const {
    m.get_counter(prefix + ".requests").set(requests_);
    m.get_counter(prefix + ".acquisitions").set(acquisitions_);
    m.get_counter(prefix + ".releases").set(releases_);
    m.get_counter(prefix + ".contended").set(contended_);
    m.get_counter(prefix + ".spin_iterations").set(spin_iterations_);
    m.get_counter(prefix + ".blocks").set(blocks_);
    m.get_counter(prefix + ".handoffs").set(handoffs_);
    m.get_counter(prefix + ".reconfigures").set(reconfigures_);
    m.get_gauge(prefix + ".peak_waiting").set(static_cast<double>(peak_waiting_));
    m.get_gauge(prefix + ".contention_ratio").set(contention_ratio());
    m.set_histogram(prefix + ".wait_ns", wait_hist_);
    m.set_histogram(prefix + ".held_ns", held_hist_);
  }

  [[nodiscard]] std::uint64_t requests() const { return requests_; }
  [[nodiscard]] std::uint64_t acquisitions() const { return acquisitions_; }
  [[nodiscard]] std::uint64_t releases() const { return releases_; }
  [[nodiscard]] std::uint64_t contended() const { return contended_; }
  [[nodiscard]] std::uint64_t spin_iterations() const { return spin_iterations_; }
  [[nodiscard]] std::uint64_t blocks() const { return blocks_; }
  [[nodiscard]] std::uint64_t handoffs() const { return handoffs_; }
  [[nodiscard]] std::uint64_t reconfigures() const { return reconfigures_; }
  [[nodiscard]] std::int64_t peak_waiting() const { return peak_waiting_; }
  /// Duration of the most recently *completed* hold (the `lock-hold-time`
  /// sensor's state variable).
  [[nodiscard]] sim::vdur last_held() const { return last_held_; }
  /// Most recent release-to-acquire gap (the `handoff-latency` sensor's
  /// state variable; zero until a release has been followed by an acquire).
  [[nodiscard]] sim::vdur last_handoff_latency() const { return last_handoff_; }
  [[nodiscard]] const sim::accumulator& wait_time_us() const { return wait_time_; }

  /// Fraction of acquisitions that found the lock busy.
  [[nodiscard]] double contention_ratio() const {
    return requests_ ? static_cast<double>(contended_) / static_cast<double>(requests_) : 0.0;
  }

 private:
  [[nodiscard]] bool tracing() const { return tracer_ != nullptr && tracer_->recording(); }

  std::uint64_t requests_{0};
  std::uint64_t acquisitions_{0};
  std::uint64_t releases_{0};
  std::uint64_t contended_{0};
  std::uint64_t spin_iterations_{0};
  std::uint64_t blocks_{0};
  std::uint64_t handoffs_{0};
  std::uint64_t reconfigures_{0};
  std::int64_t peak_waiting_{0};
  sim::vtime held_since_{};
  sim::vdur last_held_{};
  sim::vtime last_release_at_{};
  sim::vdur last_handoff_{};
  sim::accumulator wait_time_;
  obs::log_histogram wait_hist_;  ///< ns
  obs::log_histogram held_hist_;  ///< ns
  sim::trace* pattern_{nullptr};

  lock_object* owner_{nullptr};
  lock_event_observer* observer_{nullptr};
  obs::tracer* tracer_{nullptr};
  std::uint32_t pid_{0};
  std::string trace_name_;
  std::string name_held_;
  std::string name_acquire_;
  std::string name_contend_;
  std::string name_block_;
  std::string name_handoff_;
  std::string name_reconfigure_;
  std::string name_waiting_;
};

}  // namespace adx::locks
