// The periodic policy runtime: asynchronous adaptation.
//
// All policies used to run synchronously inside lock/object operations —
// exactly the monitoring-cost tradeoff §3 of the paper warns about: every
// k-th instrumentation point charged monitor sampling and policy execution
// to the operating thread. `async_runtime` decouples them, in the style of
// APEX's apex_register_periodic_policy:
//
//   - A spec with `mode: async` makes the registry install the object's
//     monitor loosely coupled, so instrumentation points only queue
//     observations (the queue is the in-sim stand-in for the native side's
//     lock-free snapshot ring) and the acquire/release fast path carries
//     ZERO policy cost in virtual time.
//   - A low-priority daemon — a ct task here, a real thread in src/native
//     (native::policy_daemon) — wakes at fixed virtual-time ticks, drains
//     every registered object's queue through `adaptive_object::pump()`,
//     runs the installed policy core out-of-band, and charges the monitor /
//     policy / Ψ costs to *itself* on its own processor.
//   - Idle-lock demotion across objects is not this runtime's: a
//     `fed_coordinator` (policy/fed_coordinator.hpp) observes each daemon's
//     ticks and demotes coordinated locks by messages.
//
// Determinism contract: daemon wakeups are ordinary simulator events at
// start + k*period, so runs remain bit-reproducible (FIFO tie-break) and
// adx-check oracles / ddmin replay apply unchanged. The daemon exits when
// it is the last live thread, so `run()`/`run_all()` still drain.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/adaptive.hpp"
#include "ct/context.hpp"
#include "ct/runtime.hpp"
#include "ct/task.hpp"
#include "locks/adaptive_lock.hpp"
#include "locks/cost_model.hpp"
#include "locks/factory.hpp"
#include "policy/spec.hpp"

namespace adx::policy {

struct runtime_config {
  /// Virtual-time tick period of the daemon.
  sim::vdur period = sim::microseconds(
      static_cast<double>(policy_spec::kDefaultPeriodUs));
  /// Processor the daemon is pinned to.
  ct::proc_id proc = 0;
};

/// The periodic policy runtime. Register async-mode objects, `start()` it
/// on the ct runtime, run the workload; it stops by itself.
class async_runtime {
 public:
  explicit async_runtime(runtime_config cfg = {}) : cfg_(cfg) {}

  /// Adopts a factory-made lock whose `params.policy` ran `mode: async`
  /// through the registry. Returns false (and registers nothing) when the
  /// lock is not adaptive or the spec is synchronous — callers can pass
  /// every lock of a run unconditionally. `spec.coordinate` lists the lock
  /// on the external-coordination surface below.
  bool adopt_lock(locks::lock_object& lk, const locks::lock_params& params,
                  const locks::lock_cost_model& cost);

  /// Adopts a generic adaptive object (a map or a monitor): pumped every
  /// tick, no coordinator hooks.
  bool adopt_object(core::adaptive_object& obj, const policy_spec& spec,
                    const locks::lock_cost_model& cost);

  /// Forks the daemon task (no-op without registrations). Call after the
  /// objects exist and before `rt.run()`.
  void start(ct::runtime& rt);

  /// Hands this runtime's tick to an external coordinator (the federated
  /// cross-shard coordinator): the daemon invokes `fn(tick)` at the end of
  /// every tick, after pumping. Call before start(); null detaches.
  void set_tick_observer(std::function<void(std::uint64_t)> fn) {
    tick_observer_ = std::move(fn);
  }

  // ------- external-coordination surface (federated coordinator) -------

  /// Number of locks registered with `coordinate` set, in adoption order.
  [[nodiscard]] std::size_t coordinated_locks() const { return coordinated_.size(); }
  /// Acquisition count of the i-th coordinated lock (native read — callers
  /// must be on this runtime's shard or host-side after the run).
  [[nodiscard]] std::uint64_t coordinated_acquisitions(std::size_t i) const;

  /// Applies a demotion decided by an external coordinator to the i-th
  /// coordinated lock. Runs as a plain event on this runtime's shard: no
  /// virtual-time charge here — the cross-shard messaging latency (one
  /// lookahead each way) stands in for the coordination cost. Returns false
  /// if the lock already runs that policy.
  bool apply_external_demotion(std::size_t i, const locks::waiting_policy& pol);

  [[nodiscard]] std::size_t registrations() const { return regs_.size(); }

  // ------- introspection (host-side, for tests and benches) -------

  /// Daemon wakeups completed.
  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }
  /// Observations delivered to policy cores across all registrations.
  [[nodiscard]] std::uint64_t pumped() const { return pumped_; }

 private:
  struct registration {
    core::adaptive_object* obj;
    locks::adaptive_lock* lock = nullptr;  ///< set for lock adoptions
    locks::lock_cost_model cost;
  };

  ct::task<void> daemon(ct::context& ctx);
  ct::task<void> charge(ct::context& ctx, const registration& r,
                        std::uint64_t delivered, std::uint64_t reconfigs);

  runtime_config cfg_;
  std::vector<registration> regs_;
  std::vector<locks::adaptive_lock*> coordinated_;  ///< adoption order
  std::function<void(std::uint64_t)> tick_observer_;
  ct::runtime* rt_ = nullptr;
  bool started_ = false;
  std::uint64_t ticks_ = 0;
  std::uint64_t pumped_ = 0;
};

}  // namespace adx::policy
