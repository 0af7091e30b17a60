// The machine facade: global virtual clock + event queue + memory system +
// RNG. Everything above (the thread package, locks, applications) talks to
// the hardware through this class.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include <memory>

#include "sim/event_queue.hpp"
#include "sim/interconnect.hpp"
#include "sim/machine_config.hpp"
#include "sim/memory.hpp"
#include "sim/rng.hpp"

namespace adx::sim {

class machine {
 public:
  explicit machine(machine_config cfg);

  /// Places the machine on an externally owned event queue (an execution
  /// domain's shard): all timing still flows through this machine's modules
  /// and wires, but events execute on — and the clock is read from — the
  /// shared queue. The queue must outlive the machine.
  machine(machine_config cfg, event_queue& queue);

  machine(const machine&) = delete;
  machine& operator=(const machine&) = delete;

  [[nodiscard]] const machine_config& config() const { return cfg_; }
  [[nodiscard]] unsigned nodes() const { return cfg_.nodes; }
  [[nodiscard]] event_queue& events() { return *events_; }
  [[nodiscard]] const event_queue& events() const { return *events_; }
  [[nodiscard]] vtime now() const { return events_->now(); }
  [[nodiscard]] rng& random() { return rng_; }

  /// Issues one memory access from node `from` to the word homed at `home`,
  /// starting now. Returns the time at which the requester has the result
  /// (round trip: wire out, queue + service at the module, wire back).
  vtime access(node_id from, node_id home, access_kind kind);

  /// Issues `n` back-to-back accesses (e.g. copying a multi-word record);
  /// returns the completion time of the last (now() when n == 0, with no
  /// ledger change). Priced in O(1) — exactly as n calls of access() — unless
  /// a perturber is attached or the access crosses the butterfly network,
  /// where each access is priced on its own.
  vtime access_n(node_id from, node_id home, access_kind kind, std::uint64_t n);

  [[nodiscard]] const access_counts& counts() const { return counts_; }
  [[nodiscard]] const memory_module& module_at(node_id n) const { return modules_.at(n); }

  /// Total queueing delay across all modules — the machine-level congestion
  /// signal used by the contention benches.
  [[nodiscard]] vdur total_queue_delay() const;

  /// The staged network, when wire_model == butterfly (null otherwise).
  [[nodiscard]] const butterfly_network* network() const { return network_.get(); }

  /// Attaches a schedule perturber (not owned; null detaches). The machine
  /// consults its access-delay hook (interconnect spikes) and forwards the
  /// pointer to the event queue for tie-break perturbation.
  void set_perturber(perturber* p) {
    perturber_ = p;
    events_->set_perturber(p);
  }
  [[nodiscard]] perturber* get_perturber() const { return perturber_; }

 private:
  void init();
  vtime price(node_id from, node_id home, access_kind kind, std::uint64_t n);

  machine_config cfg_;
  std::unique_ptr<event_queue> owned_events_;  ///< null when borrowing
  event_queue* events_;
  std::vector<memory_module> modules_;
  access_counts counts_;
  rng rng_;
  std::unique_ptr<butterfly_network> network_;
  perturber* perturber_{nullptr};
};

}  // namespace adx::sim
