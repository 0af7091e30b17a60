// Metrics registry: named counters, gauges and log-scaled histograms with a
// JSON snapshot exporter.
//
// Names are dotted paths ("sim.remote_reads", "lock.qlock.wait_ns"); the
// registry stores them in sorted order so snapshots are deterministic.
// Lookup creates on first use; holders may cache the returned reference —
// entries are never removed and node-based map storage keeps them stable.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "obs/log_histogram.hpp"
#include "sim/memory.hpp"

namespace adx::obs {

class counter {
 public:
  void inc(std::uint64_t d = 1) { v_ += d; }
  void set(std::uint64_t v) { v_ = v; }
  [[nodiscard]] std::uint64_t value() const { return v_; }

 private:
  std::uint64_t v_{0};
};

class gauge {
 public:
  void set(double v) { v_ = v; }
  [[nodiscard]] double value() const { return v_; }

 private:
  double v_{0.0};
};

class metrics {
 public:
  [[nodiscard]] counter& get_counter(std::string_view name) {
    return counters_[std::string(name)];
  }
  [[nodiscard]] gauge& get_gauge(std::string_view name) {
    return gauges_[std::string(name)];
  }
  /// Creates an empty histogram when absent; use set_histogram to install a
  /// pre-filled one.
  [[nodiscard]] log_histogram& get_histogram(std::string_view name) {
    auto it = histograms_.find(std::string(name));
    if (it == histograms_.end()) {
      it = histograms_.emplace(std::string(name), log_histogram{}).first;
    }
    return it->second;
  }
  void set_histogram(std::string_view name, log_histogram h) {
    histograms_.insert_or_assign(std::string(name), std::move(h));
  }

  [[nodiscard]] const std::map<std::string, counter>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, gauge>& gauges() const { return gauges_; }
  [[nodiscard]] const std::map<std::string, log_histogram>& histograms() const {
    return histograms_;
  }

  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,min,max,
  /// mean,p50,p90,p99}}} — keys sorted, output deterministic.
  [[nodiscard]] std::string to_json() const;

  void clear() {
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
  }

 private:
  std::map<std::string, counter> counters_;
  std::map<std::string, gauge> gauges_;
  std::map<std::string, log_histogram> histograms_;
};

/// Snapshots the simulator's memory-access ledger (the paper's R/W cost
/// units) into counters under `prefix`.
void export_access_counts(const sim::access_counts& c, metrics& m,
                          std::string_view prefix = "sim");

}  // namespace adx::obs
