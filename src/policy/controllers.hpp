// Controller interfaces adaptive *objects* expose to their policies (the Ψ
// half of the feedback loop, object-generic edition).
//
// A controller is the narrow, dependency-free surface a policy core drives:
// the adaptive hash map implements `stripe_controller`, the adaptive
// monitor implements `mode_controller`. Decisions are *requests* — the
// policy runs host-side (inline at a feedback point, or out-of-band in the
// async runtime) and the object applies the requested reconfiguration
// cooperatively at its next quiescent opportunity.
//
// These used to live in src/objects; they moved down here so the registry's
// `install` overloads cover every install path (locks and objects) without
// the policy library depending on the object implementations.
#pragma once

#include <cstdint>

namespace adx::policy {

/// The map-side interface the stripe policy drives.
class stripe_controller {
 public:
  virtual ~stripe_controller() = default;
  [[nodiscard]] virtual unsigned active_stripes() const = 0;
  [[nodiscard]] virtual unsigned min_stripes() const = 0;
  [[nodiscard]] virtual unsigned max_stripes() const = 0;
  [[nodiscard]] virtual unsigned stripe_factor() const = 0;
  /// Requests a stripe-count reconfiguration (clamped by the map; applied
  /// cooperatively before a subsequent operation).
  virtual void request_stripes(unsigned target) = 0;

  /// Bucket-array hooks: the per-stripe bucket count and its cap. A map
  /// that cannot grow its bucket arrays keeps the defaults (0 disables the
  /// probe-length growth rule).
  [[nodiscard]] virtual unsigned buckets_per_stripe() const { return 0; }
  [[nodiscard]] virtual unsigned max_buckets_per_stripe() const { return 0; }
  /// Requests a per-stripe bucket-array reconfiguration (clamped; applied
  /// cooperatively like request_stripes).
  virtual void request_buckets(unsigned /*per_stripe*/) {}
};

/// Knobs of the stripe-adapt policy; every key can be overridden through
/// `policy_spec::params` (kebab-case keys match the field comments).
struct stripe_adapt_params {
  std::int64_t skew_grow = 2;     ///< "skew-grow": grow when skew >= this
  std::int64_t load_grow = 150;   ///< "load-grow": grow when load% >= this
  std::int64_t load_shrink = 50;  ///< "load-shrink": shrink only when load% <= this
  /// "probe-grow": double the bucket arrays when the probe-length sensor
  /// (100 x chain nodes traversed per op) reaches this. Independent of the
  /// stripe votes: long chains under low contention need more buckets, not
  /// more locks. 0 disables.
  std::int64_t probe_grow = 300;
  std::uint64_t confirm = 2;      ///< "confirm": consecutive same-direction votes
  std::uint64_t cooldown = 8;     ///< "cooldown": observations muted after a request
};

/// The monitor-side interface the mode policy drives.
class mode_controller {
 public:
  virtual ~mode_controller() = default;
  /// 0 = classic blocking entry, 1 = delegated (combining) execution.
  [[nodiscard]] virtual std::int64_t current_mode() const = 0;
  virtual void request_mode(std::int64_t mode) = 0;
};

/// Knobs of the mode-adapt policy ("delegate short sections"): overridable
/// through `policy_spec::params`.
struct mode_adapt_params {
  std::int64_t delegate_below_us = 30;  ///< "delegate-below-us"
  std::int64_t classic_above_us = 80;   ///< "classic-above-us"
  std::int64_t min_waiters = 1;         ///< "min-waiters": delegation needs queueing
  std::uint64_t confirm = 2;            ///< "confirm"
  std::uint64_t cooldown = 4;           ///< "cooldown"
};

}  // namespace adx::policy
