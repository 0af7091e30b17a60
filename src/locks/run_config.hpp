// adx::run_config — the one value that fully determines a simulated run.
//
// Every experiment in this codebase is a function of the same five choices:
// the machine shape, the lock kind, the lock parameters, the perturbation
// profile, and the seed. Historically each driver (the TSP solver, the
// benches, the checker) assembled those pieces ad hoc; run_config packages
// them as a single serializable value so that a failing schedule-exploration
// run can print its configuration as JSON and any driver can replay it
// exactly from that text.
//
// The struct is aggregate-friendly (designated initializers work) and also
// offers a fluent builder style:
//
//   auto rc = adx::run_config{}
//                 .with_machine(sim::machine_config::test_machine(4))
//                 .with_lock(locks::lock_kind::adaptive)
//                 .with_grant_mode(1)
//                 .with_perturb(sim::perturb_profile::preempt())
//                 .with_seed(7);
//   auto lk = locks::make_lock(rc, home, cost);
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "locks/factory.hpp"
#include "sim/event_domain.hpp"
#include "sim/machine_config.hpp"
#include "sim/perturb.hpp"

namespace adx {

struct run_config {
  sim::machine_config machine = sim::machine_config::butterfly_gp1000();
  locks::lock_kind lock = locks::lock_kind::spin;
  locks::lock_params params{};
  sim::perturb_profile perturb{};
  /// Run seed: feeds both the machine RNG (machine.seed is overridden at
  /// build time when nonzero here) and any seeded perturber built from this
  /// config. Zero means "keep machine.seed as-is".
  std::uint64_t seed{0};
  /// Adaptive-object axis (src/objects): empty means a pure lock run;
  /// otherwise an objects::object_kind name ("hashmap", "monitor"). Kept as
  /// a string because run_config sits below the objects library.
  std::string object;
  /// Object-level adaptation policy (stripe-adapt / mode-adapt). The default
  /// spec means "the object's own default policy".
  policy::policy_spec object_policy{};
  /// DES shards for workloads running on an execution domain (federated ct
  /// sweeps, open-loop serving); must be >= 1. Results are
  /// bit-identical at every value, so this is purely a wall-clock knob.
  unsigned shards = 1;
  /// Opt-in adaptive lookahead for the execution domain: windows widen over
  /// quiet rounds and decay on cross-shard traffic. Virtual results stay
  /// bit-identical to the fixed-lookahead run for workloads whose sends all
  /// travel at exactly the horizon (everything federation::post ships).
  bool adaptive_lookahead = false;

  friend bool operator==(const run_config&, const run_config&) = default;

  // ------- fluent builder -------

  run_config& with_machine(sim::machine_config m) {
    machine = m;
    return *this;
  }
  run_config& with_nodes(unsigned n) {
    machine.nodes = n;
    return *this;
  }
  run_config& with_lock(locks::lock_kind k) {
    lock = k;
    return *this;
  }
  run_config& with_params(locks::lock_params p) {
    params = p;
    return *this;
  }
  run_config& with_policy(locks::waiting_policy wp) {
    params.initial_policy = wp;
    return *this;
  }
  run_config& with_grant_mode(std::int64_t m) {
    params.grant_mode = m;
    return *this;
  }
  run_config& with_perturb(sim::perturb_profile p) {
    perturb = p;
    return *this;
  }
  run_config& with_seed(std::uint64_t s) {
    seed = s;
    return *this;
  }
  run_config& with_object(std::string kind) {
    object = std::move(kind);
    return *this;
  }
  run_config& with_object_policy(policy::policy_spec spec) {
    object_policy = std::move(spec);
    return *this;
  }
  run_config& with_shards(unsigned s) {
    shards = s;
    return *this;
  }
  run_config& with_adaptive_lookahead(bool on = true) {
    adaptive_lookahead = on;
    return *this;
  }

  /// The domain options this config asks for (seed falls back to the
  /// machine's when no run seed is set).
  [[nodiscard]] sim::domain_options domain_options() const {
    return {.shards = shards,
            .seed = seed != 0 ? seed : machine.seed,
            .adaptive_lookahead = adaptive_lookahead};
  }

  /// The machine configuration to actually instantiate: `machine` with its
  /// RNG seed replaced by the run seed (when one is set).
  [[nodiscard]] sim::machine_config effective_machine() const {
    auto m = machine;
    if (seed != 0) m.seed = seed;
    return m;
  }

  /// Serializes to a single-line JSON object; from_json(to_json(c)) == c.
  [[nodiscard]] std::string to_json() const;

  /// Parses a run_config from JSON as printed by to_json(). Unknown keys are
  /// ignored (forward compatibility); missing keys keep their defaults.
  /// Throws std::invalid_argument on malformed input.
  [[nodiscard]] static run_config from_json(std::string_view text);
};

}  // namespace adx

namespace adx::locks {

/// Builds the lock a run_config describes, homed at `home`.
[[nodiscard]] std::unique_ptr<lock_object> make_lock(const adx::run_config& rc,
                                                     sim::node_id home,
                                                     const lock_cost_model& cost);

}  // namespace adx::locks
