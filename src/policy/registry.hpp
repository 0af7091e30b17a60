// The policy registry: the by-name catalogue of adaptation policies and the
// install functions that turn a `policy_spec` into a live monitor + policy
// pair on any adaptive object.
//
// One overload of `install` per family:
//   - lock family   (simple-adapt, break-even, ewma-hold, multi-sensor):
//     installed on a `locks::adaptive_lock` — its constructor calls it, so
//     the default simple-adapt and every other lock policy run the same
//     engine; the lock family is also adx-check's `--policies=all` axis.
//   - map family    (stripe-adapt): installed on anything exposing a
//     `stripe_controller` (the adaptive hash map).
//   - monitor family (mode-adapt): installed on anything exposing a
//     `mode_controller` (the adaptive monitor).
//
// Every install consumes the same `policy_spec` schema — name, params,
// sensors, wrappers, and the execution mode (`sync` runs the policy inline
// at feedback points; `async` switches the object's monitor to loose
// coupling so observations queue for the periodic policy runtime,
// `policy::async_runtime`, and the fast path carries zero policy cost).
// Every install folds sensor samples in the object's monitor.
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "core/adaptive.hpp"
#include "locks/adaptive_lock.hpp"
#include "locks/cost_model.hpp"
#include "locks/factory.hpp"
#include "policy/controllers.hpp"
#include "policy/sensor_host.hpp"
#include "policy/spec.hpp"

namespace adx::policy {

struct policy_info {
  std::string_view name;
  std::string_view description;
};

/// Every lock-family policy, in registration order.
[[nodiscard]] std::span<const policy_info> all_policies();
[[nodiscard]] std::vector<std::string_view> all_policy_names();

/// Validates a lock-family policy name; throws std::invalid_argument
/// listing every registered name on unknown input.
[[nodiscard]] std::string_view parse_policy_name(std::string_view name);

/// The canonical spec for a registered policy of any family: its name plus
/// its default sensor set. For the lock family, sensor periods come from
/// `sample_period`. "simple-adapt" keeps an empty sensor list, so its spec
/// is the default value: the lock installs its one `no-of-waiting-threads`
/// sensor at the lock's own `adapt.sample_period`. Throws
/// std::invalid_argument listing the lock-family names on unknown input.
[[nodiscard]] policy_spec default_spec(std::string_view name,
                                       std::uint64_t sample_period = 2);

/// Installs the lock-family policy described by `params.policy` on `lk`:
/// replaces the monitor's sensor set with the spec's (falling back to the
/// policy's default sensors at `params.adapt.sample_period`), builds the
/// wrapped decision core, and makes the engine driving it the lock's
/// adaptation policy. Throws std::invalid_argument on unknown policy,
/// sensor or wrapper names and on a sensor named twice.
void install(locks::adaptive_lock& lk, const locks::lock_params& params,
             const locks::lock_cost_model& cost);

/// Installs a map-family policy ("stripe-adapt") driving `ctl`, with
/// sensors installed on `obj`'s monitor through `host`.
void install(core::adaptive_object& obj, sensor_host& host, stripe_controller& ctl,
             const policy_spec& spec);

/// Installs a monitor-family policy ("mode-adapt") driving `ctl`.
void install(core::adaptive_object& obj, sensor_host& host, mode_controller& ctl,
             const policy_spec& spec);

}  // namespace adx::policy
