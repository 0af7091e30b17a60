// Adaptive lock (§4, §5): a reconfigurable lock whose customized monitor and
// adaptation policy form the closely-coupled feedback loop executed inline by
// unlocking threads.
//
// The constructor installs the policy its spec names through the policy
// registry (`policy::install`, src/policy). The default spec is the paper's
// `simple-adapt`:
//
// Monitor: one sensor, `no-of-waiting-threads`, sampled once during every
// other unlock operation (period 2 by default).
//
// Policy (verbatim from §4):
//
//   IF   no-of-waiting-threads = 0                → configure pure spin
//   ELIF no-of-waiting-threads <= Waiting-Threshold → no-of-spins += n
//   ELSE                                          → no-of-spins -= 2n
//   IF   no-of-spins <= 0                         → configure pure blocking
//
// Waiting-Threshold and n are lock-specific constants, exposed here as
// parameters (the paper notes they must be tuned per lock; the ablation
// bench `bench_abl_threshold` sweeps them).
//
// This header sits in src/locks, but the class is defined in
// src/policy/adaptive_lock.cpp and builds in adx_policy: constructing an
// adaptive lock installs a registry policy, so everything that constructs
// one links the policy library.
#pragma once

#include <memory>

#include "locks/reconfigurable_lock.hpp"
#include "policy/spec.hpp"

namespace adx::policy {
class engine;
}  // namespace adx::policy

namespace adx::locks {

/// The knobs of the paper's simple-adapt rule and of the lock's monitor; the
/// registry's decision cores read their defaults from here.
struct simple_adapt_params {
  std::int64_t waiting_threshold = 4;  ///< Waiting-Threshold
  std::int64_t n = 10;                 ///< the per-lock adjustment constant
  std::int64_t spin_cap = 200;         ///< upper bound on no-of-spins
  std::uint64_t sample_period = 2;     ///< sample every k-th unlock (paper: 2)
  /// The paper's no-contention rule configures an *unbounded* pure spin —
  /// correct with one thread per processor (TSP, §4), but under
  /// multiprogramming a long spin steals cycles from runnable peers. With
  /// this false, the no-contention configuration is mixed(spin_cap): spin up
  /// to the cap, then block — the bounded-spin rule production adaptive
  /// mutexes use.
  bool pure_spin_on_idle = true;

  friend bool operator==(const simple_adapt_params&, const simple_adapt_params&) = default;
};

class adaptive_lock final : public reconfigurable_lock {
 public:
  /// Installs `spec` (default: simple-adapt on one `no-of-waiting-threads`
  /// sensor at `params.sample_period`). Throws std::invalid_argument on an
  /// unknown policy, sensor or wrapper name.
  adaptive_lock(sim::node_id home, lock_cost_model cost,
                simple_adapt_params params = {},
                waiting_policy initial = waiting_policy::mixed(10),
                const policy::policy_spec& spec = {});

  [[nodiscard]] std::string_view kind() const override { return "adaptive"; }

  [[nodiscard]] const simple_adapt_params& adapt_params() const { return params_; }

  /// Makes `e` the lock's adaptation policy (the registry's install calls
  /// this).
  void set_engine(std::shared_ptr<policy::engine> e);
  /// The installed policy, typed: its name and latest decision annotate
  /// reconfigure events.
  [[nodiscard]] const policy::engine& engine() const { return *engine_; }
  [[nodiscard]] policy::engine& engine() { return *engine_; }

 protected:
  /// The closely-coupled feedback loop, executed by the unlocking thread:
  /// sample the sensor, run the policy, charge monitor + policy + any Ψ cost.
  ct::task<void> post_release_hook(ct::context& ctx) override;

 private:
  simple_adapt_params params_;
  policy::engine* engine_ = nullptr;  ///< owned through adaptive_object's policy
};

}  // namespace adx::locks
