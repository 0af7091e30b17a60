// Lock factory: uniform construction of any lock kind, used by the benches
// and the TSP solver to sweep lock families. Lock-kind naming is defined in
// adx_locks (factory.cpp); `make_lock` is defined in adx_policy
// (src/policy/make_lock.cpp), because an adaptive lock installs a registry
// policy when it is constructed.
#pragma once

#include <memory>
#include <span>
#include <string_view>

#include "locks/adaptive_lock.hpp"
#include "locks/lock.hpp"
#include "policy/spec.hpp"

namespace adx::locks {

enum class lock_kind {
  atomior,
  spin,
  backoff,
  blocking,
  combined,
  advisory,
  ticket,
  mcs,
  reconfigurable,
  adaptive,
};

[[nodiscard]] const char* to_string(lock_kind k);

/// Parses a lock-kind name (as printed by to_string); throws
/// std::invalid_argument naming the valid kinds on unknown names.
[[nodiscard]] lock_kind parse_lock_kind(std::string_view name);

/// All lock kinds, in declaration order — the sweep axis for benches and
/// the adx-check CLI.
[[nodiscard]] std::span<const lock_kind> all_lock_kinds();

struct lock_params {
  std::int64_t combined_spin_limit = 10;
  waiting_policy initial_policy = waiting_policy::mixed(10);
  simple_adapt_params adapt{};
  /// Release discipline for reconfigurable/adaptive locks: 0 = direct
  /// handoff (paper setting), 1 = release-and-retry (barging; avoids grant
  /// convoys under heavy multiprogramming).
  std::int64_t grant_mode = 0;
  /// Adaptation policy for adaptive locks, installed through the adx::policy
  /// registry when the lock is constructed (default: simple-adapt).
  policy::policy_spec policy{};

  friend bool operator==(const lock_params&, const lock_params&) = default;
};

[[nodiscard]] std::unique_ptr<lock_object> make_lock(lock_kind kind, sim::node_id home,
                                                     const lock_cost_model& cost,
                                                     const lock_params& params = {});

}  // namespace adx::locks
