// Object-policy names in the objects namespace.
//
// The object controllers (stripe_controller, mode_controller) and the
// stripe-adapt / mode-adapt policy implementations live in src/policy, so
// one registry (`policy::install`) owns every install path — locks and
// objects — behind one `policy_spec` schema. This header keeps the
// objects-namespace aliases and the objects' sensor names and default specs.
#pragma once

#include <span>
#include <string_view>

#include "core/adaptive.hpp"
#include "policy/controllers.hpp"
#include "policy/registry.hpp"
#include "policy/sensor_host.hpp"
#include "policy/spec.hpp"

namespace adx::objects {

using stripe_controller = policy::stripe_controller;
using mode_controller = policy::mode_controller;
using stripe_adapt_params = policy::stripe_adapt_params;
using mode_adapt_params = policy::mode_adapt_params;

// ---------------------------------------------------------------- hash map

/// Names of the adaptive hash map's sensors:
///   load-factor            100 x entries / buckets (percent)
///   stripe-contention-skew waiters on the hottest stripe minus the
///                          per-stripe mean — the imbalance finer striping
///                          can fix (> 0 under uniform heavy contention too)
///   probe-length           100 x EWMA of chain nodes traversed per op
[[nodiscard]] std::span<const std::string_view> map_sensor_names();

/// Default declarative spec for the map: name "stripe-adapt" plus the three
/// map sensors with their canonical periods and aggregations.
[[nodiscard]] policy::policy_spec default_map_spec();

// ----------------------------------------------------------------- monitor

/// Names of the adaptive monitor's sensors:
///   section-time     charged length of the last executed section, in µs
///   monitor-waiters  entry-lock waiters plus queued delegated requests
///   entry-rate       monitor entries since the previous sample
[[nodiscard]] std::span<const std::string_view> monitor_sensor_names();

/// Default declarative spec for the monitor: name "mode-adapt" plus the
/// three monitor sensors.
[[nodiscard]] policy::policy_spec default_monitor_spec();

}  // namespace adx::objects
