// The adaptation-policy engine: turns a declarative `policy_spec` into the
// running policy of an adaptive lock.
//
// Structure of a built policy:
//
//   monitor fold (per sensor) ──> decision core ──> wrappers
//   last-value / ewma /            the policy P      hysteresis /
//   max-in-window (core::monitor)  (P of §3)         deadband /
//                                                    cooldown
//                                          ──> apply_waiting_policy (Ψ)
//
// The engine is the glue: it feeds the monitor-folded observations to the
// decision core, filters the core's desired configuration through the
// wrapper stack, and applies the survivor to the lock — recording the
// decision (sensor value, applied Ψ, full sensor vector) for the obs
// reconfigure annotation. Every adaptive lock runs one, the default
// `simple-adapt` included.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "core/policy.hpp"
#include "core/sensor.hpp"
#include "locks/reconfigurable_lock.hpp"

namespace adx::policy {

/// A policy core: maps (aggregated observation, current configuration) to a
/// desired configuration, or nothing to leave the lock alone. Cores are pure
/// decision logic — sensor plumbing, wrapper filtering and Ψ application all
/// live in the engine.
class decision_core {
 public:
  virtual ~decision_core() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// `obs.value` is the monitor-folded reading of the sensor named in `obs`.
  [[nodiscard]] virtual std::optional<locks::waiting_policy> decide(
      const core::observation& obs, const locks::waiting_policy& current) = 0;

  /// Called after a decision of this core was actually applied to the lock
  /// (post-wrapper). Lets cores that model state (e.g. cooldown-like logic)
  /// track real Ψ transitions rather than suppressed proposals.
  virtual void notify_applied() {}
};

/// Decision-filter combinators. Each wraps an inner core and passes, delays
/// or suppresses its desired configurations; `notify_applied` is forwarded
/// inward so nested cores still observe real transitions.
[[nodiscard]] std::unique_ptr<decision_core> wrap_hysteresis(
    std::unique_ptr<decision_core> inner, std::uint64_t confirm);
[[nodiscard]] std::unique_ptr<decision_core> wrap_deadband(
    std::unique_ptr<decision_core> inner, std::int64_t band);
[[nodiscard]] std::unique_ptr<decision_core> wrap_cooldown(
    std::unique_ptr<decision_core> inner, std::uint64_t observations);

/// The runtime policy installed on an adaptive lock: drives the wrapped core
/// from the monitor's folded sensor values and applies its decisions.
class engine final : public core::adaptation_policy {
 public:
  /// The most recent reconfiguration decision d_c together with the sensor
  /// value v_i that caused it and a rendering of the full sensor vector, for
  /// trace annotation.
  struct decision_record {
    std::int64_t sensor_value{0};
    locks::waiting_policy applied{};
    std::string sensors{};  ///< "name=value ..." snapshot at decision time
  };

  /// `lk` must outlive the engine; its monitor carries the sensors.
  engine(locks::reconfigurable_lock& lk, std::string spec_name,
         std::unique_ptr<decision_core> core);

  void observe(const core::observation& obs) override;

  /// Registry-style policy name ("simple-adapt", "break-even+hysteresis", ...).
  [[nodiscard]] std::string_view policy_name() const { return name_; }
  [[nodiscard]] const decision_record& last_decision() const { return last_; }

 private:
  [[nodiscard]] std::string render_sensor_vector() const;

  locks::reconfigurable_lock* lk_;
  std::string name_;
  std::unique_ptr<decision_core> core_;
  decision_record last_{};
};

}  // namespace adx::policy
