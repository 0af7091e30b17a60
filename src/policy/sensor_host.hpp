// The object-generic half of the sensor catalogue (§3's "diversity" factor,
// promoted beyond locks).
//
// A `sensor_host` is any adaptive object that can name its observable state
// variables and build a core::sensor reading each one. The reconfigurable
// lock, the adaptive hash map and the adaptive monitor all implement it, so
// one `install_sensors` path wires a declarative sensor list (the
// `policy_spec::sensors` vector a run_config carries) onto any of them with
// the same validation UX: an unknown sensor name throws
// std::invalid_argument listing every name the host exposes, and so does a
// name listed twice. The object's monitor folds every sensor (last-value,
// EWMA or max-in-window); no policy keeps a second fold.
#pragma once

#include <span>
#include <string_view>

#include "core/adaptive.hpp"
#include "core/sensor.hpp"
#include "policy/spec.hpp"

namespace adx::policy {

class sensor_host {
 public:
  virtual ~sensor_host() = default;

  /// Every sensor name this host can build, the sweep/validation axis.
  [[nodiscard]] virtual std::span<const std::string_view> sensor_names() const = 0;

  /// Builds a named sensor reading this host's state. Implementations
  /// should call `throw_unknown_sensor` on unrecognized names so every host
  /// reports errors identically.
  [[nodiscard]] virtual core::sensor make_sensor(std::string_view name,
                                                 std::uint64_t period) = 0;

  /// Shared error UX: "unknown sensor: X (valid: a b c)".
  [[noreturn]] static void throw_unknown_sensor(
      std::string_view name, std::span<const std::string_view> valid);
};

/// Maps a spec aggregation onto the core monitor's fold.
[[nodiscard]] core::sensor_aggregation to_core_aggregation(const sensor_spec& s);

/// Replaces `obj`'s monitor sensors with `specs`, each built by `host` and
/// registered with its spec's aggregation fold; the object's policy then
/// sees folded values. Validation happens before the first sensor is
/// installed: on an unknown name, or a name listed twice, it throws
/// std::invalid_argument and the monitor is untouched.
void install_sensors(core::adaptive_object& obj, sensor_host& host,
                     std::span<const sensor_spec> specs);

}  // namespace adx::policy
