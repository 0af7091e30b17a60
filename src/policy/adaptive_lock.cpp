#include "locks/adaptive_lock.hpp"

#include <utility>

#include "locks/factory.hpp"
#include "policy/engine.hpp"
#include "policy/registry.hpp"

namespace adx::locks {

adaptive_lock::adaptive_lock(sim::node_id home, lock_cost_model cost,
                             simple_adapt_params params, waiting_policy initial,
                             const policy::policy_spec& spec)
    : reconfigurable_lock(home, cost, initial), params_(params) {
  policy::install(*this, lock_params{.adapt = params, .policy = spec}, cost);
}

void adaptive_lock::set_engine(std::shared_ptr<policy::engine> e) {
  engine_ = e.get();
  set_policy(std::move(e));
}

ct::task<void> adaptive_lock::post_release_hook(ct::context& ctx) {
  const auto reconfigs_before = costs().reconfiguration_ops;
  const auto delivered = feedback_point();
  if (delivered == 0) co_return;

  // Monitor: read the sensed state variable and run low-level processing.
  co_await ctx.touch(home(), sim::access_kind::read,
                     static_cast<std::uint64_t>(delivered));
  co_await ctx.compute(cost_.monitor_sample_overhead * static_cast<std::int64_t>(delivered));
  // Adaptation policy execution.
  co_await ctx.compute(cost_.policy_execution * static_cast<std::int64_t>(delivered));
  // Any reconfiguration decisions: charge the packed 1R + 1W per Ψ.
  const auto reconfigs = costs().reconfiguration_ops - reconfigs_before;
  if (reconfigs > 0) {
    co_await ctx.compute(cost_.configure_attr_overhead *
                         static_cast<std::int64_t>(reconfigs));
    co_await ctx.touch(home(), sim::access_kind::read, reconfigs);
    co_await ctx.touch(home(), sim::access_kind::write, reconfigs);
    const auto& d = engine_->last_decision();
    stats_.on_reconfigure(ctx.now(), ctx.self(), d.sensor_value, describe(d.applied),
                          engine_->policy_name(), d.sensors);
  }
}

}  // namespace adx::locks
