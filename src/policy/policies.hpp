// Built-in decision cores: the concrete adaptation policies P the registry
// can instantiate. Each factory reads its knobs from the spec's `params` map
// (absent keys take defaults derived from the lock's `simple_adapt_params`
// and its cost model).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string_view>

#include "locks/adaptive_lock.hpp"
#include "locks/cost_model.hpp"
#include "policy/engine.hpp"
#include "policy/spec.hpp"

namespace adx::policy {

/// Knob `key` of `spec` as an integer: `fallback` when absent, otherwise the
/// value truncated toward zero. Knobs come from run_config / policy_spec
/// JSON, so a value that is not finite or does not fit [lo, INT64_MAX]
/// throws std::invalid_argument naming the knob.
[[nodiscard]] std::int64_t int_knob(const policy_spec& spec, std::string_view key,
                                    std::int64_t fallback,
                                    std::int64_t lo = std::numeric_limits<std::int64_t>::min());

/// The paper's §4 rule, the adaptive lock's default policy (see
/// locks/adaptive_lock.hpp for the pseudocode). Knobs: waiting_threshold, n,
/// spin_cap (>= 0, as in every core), pure_spin_on_idle (0/1).
[[nodiscard]] std::unique_ptr<decision_core> make_simple_adapt_core(
    const policy_spec& spec, const locks::simple_adapt_params& defaults,
    const locks::lock_cost_model& cost);

/// Cost-model break-even rule: spin only while the expected wait (waiters ×
/// smoothed hold time) stays below the cost of a block/unblock round trip,
/// with the spin budget itself sized from the model. Knobs: break_even_us
/// (default: blocking minus spinning lock+unlock overhead), spin_cap.
[[nodiscard]] std::unique_ptr<decision_core> make_break_even_core(
    const policy_spec& spec, const locks::simple_adapt_params& defaults,
    const locks::lock_cost_model& cost);

/// Hold-time tracking rule: size the spin budget to cover one (smoothed)
/// critical section; holds too long to spin through become pure blocking.
/// Knobs: spin_cap.
[[nodiscard]] std::unique_ptr<decision_core> make_ewma_hold_core(
    const policy_spec& spec, const locks::simple_adapt_params& defaults,
    const locks::lock_cost_model& cost);

/// Two-sensor rule (waiting count + hold time): spin only when the queue is
/// short AND sections are short; either signal alone can flip the lock to
/// blocking. Knobs: waiting_threshold, spin_cap, spin_budget_us.
[[nodiscard]] std::unique_ptr<decision_core> make_multi_sensor_core(
    const policy_spec& spec, const locks::simple_adapt_params& defaults,
    const locks::lock_cost_model& cost);

}  // namespace adx::policy
