// Memory modules and the access ledger.
//
// The paper's formal model (§3.1) prices every state-transition and
// reconfiguration operation in memory reads and writes (`t = n1 R n2 W`).
// The simulator makes that model executable: every access is routed through
// the owning module, charged wire + service latency, and counted in a ledger
// that tests and benches can snapshot.
#pragma once

#include <cstdint>

#include "sim/machine_config.hpp"
#include "sim/time.hpp"

namespace adx::sim {

enum class access_kind : std::uint8_t { read, write, rmw };

/// Counts of accesses, split by locality. Snapshot-and-diff to price an
/// operation in the paper's R/W units.
struct access_counts {
  std::uint64_t local_reads{0};
  std::uint64_t local_writes{0};
  std::uint64_t remote_reads{0};
  std::uint64_t remote_writes{0};
  std::uint64_t local_rmws{0};
  std::uint64_t remote_rmws{0};

  [[nodiscard]] std::uint64_t reads() const { return local_reads + remote_reads; }
  [[nodiscard]] std::uint64_t writes() const { return local_writes + remote_writes; }
  [[nodiscard]] std::uint64_t rmws() const { return local_rmws + remote_rmws; }
  [[nodiscard]] std::uint64_t total() const { return reads() + writes() + rmws(); }

  friend access_counts operator-(access_counts a, const access_counts& b) {
    a.local_reads -= b.local_reads;
    a.local_writes -= b.local_writes;
    a.remote_reads -= b.remote_reads;
    a.remote_writes -= b.remote_writes;
    a.local_rmws -= b.local_rmws;
    a.remote_rmws -= b.remote_rmws;
    return a;
  }
  friend bool operator==(const access_counts&, const access_counts&) = default;
};

/// One memory module: FIFO single-server queue. An access arriving while the
/// module is busy waits; that queueing is what turns N spinning processors
/// into the hot-spot degradation the paper's locks are designed around.
class memory_module {
 public:
  explicit memory_module(node_id node) : node_(node) {}

  [[nodiscard]] node_id node() const { return node_; }

  /// Services an access arriving at `arrival` taking `service` module time;
  /// returns the completion time at the module.
  vtime service(vtime arrival, vdur service_time) { return service_n(arrival, service_time, 1); }

  /// Services `n` accesses that all arrive at `arrival` (n >= 1). FIFO
  /// service runs them back to back from `start`, so access i waits
  /// start - arrival + i * service: the closed form below is bit-identical to
  /// n calls of service(). Returns the completion time of the last.
  vtime service_n(vtime arrival, vdur service_time, std::uint64_t n) {
    const vtime start = max(arrival, busy_until_);
    const auto k = static_cast<std::int64_t>(n);
    busy_until_ = start + service_time * k;
    serviced_ += n;
    // sum_{i<n} i = n(n-1)/2; halving the even factor first keeps the
    // product inside int64 wherever the result itself fits.
    const std::int64_t pairs = n % 2 == 0 ? (k / 2) * (k - 1) : k * ((k - 1) / 2);
    total_queue_delay_ += (start - arrival) * k + service_time * pairs;
    return busy_until_;
  }

  [[nodiscard]] vtime busy_until() const { return busy_until_; }
  [[nodiscard]] std::uint64_t serviced() const { return serviced_; }
  /// Total time accesses spent queued behind other accesses at this module.
  [[nodiscard]] vdur total_queue_delay() const { return total_queue_delay_; }

 private:
  node_id node_;
  vtime busy_until_{};
  std::uint64_t serviced_{0};
  vdur total_queue_delay_{};
};

}  // namespace adx::sim
