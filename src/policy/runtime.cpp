#include "policy/runtime.hpp"

#include <optional>

#include "locks/reconfigurable_lock.hpp"
#include "policy/engine.hpp"

namespace adx::policy {

bool async_runtime::adopt_lock(locks::lock_object& lk,
                               const locks::lock_params& params,
                               const locks::lock_cost_model& cost) {
  if (started_) return false;
  if (params.policy.mode != exec_mode::async) return false;
  auto* al = dynamic_cast<locks::adaptive_lock*>(&lk);
  if (al == nullptr) return false;
  registration r;
  r.obj = al;
  r.lock = al;
  r.cost = cost;
  regs_.push_back(r);
  if (params.policy.coordinate) coordinated_.push_back(al);
  return true;
}

bool async_runtime::adopt_object(core::adaptive_object& obj, const policy_spec& spec,
                                 const locks::lock_cost_model& cost) {
  if (started_) return false;
  if (spec.mode != exec_mode::async) return false;
  registration r;
  r.obj = &obj;
  r.cost = cost;
  regs_.push_back(r);
  return true;
}

void async_runtime::start(ct::runtime& rt) {
  if (started_ || regs_.empty()) return;
  started_ = true;
  rt_ = &rt;
  // Negative priority keeps the daemon behind application threads.
  rt.fork(cfg_.proc, [this](ct::context& ctx) { return daemon(ctx); }, -1);
}

std::uint64_t async_runtime::coordinated_acquisitions(std::size_t i) const {
  return i < coordinated_.size() ? coordinated_[i]->stats().acquisitions() : 0;
}

bool async_runtime::apply_external_demotion(std::size_t i,
                                            const locks::waiting_policy& pol) {
  if (i >= coordinated_.size()) return false;
  auto& lk = *coordinated_[i];
  if (lk.current_policy() == pol) return false;
  const auto now = rt_ != nullptr ? rt_->now() : sim::vtime{};
  if (!lk.apply_waiting_policy(pol, std::nullopt, now)) return false;
  lk.stats().on_reconfigure(now, ct::invalid_thread, 0, locks::describe(pol),
                            "fed-coordinator", "[cross-shard]");
  return true;
}

ct::task<void> async_runtime::daemon(ct::context& ctx) {
  for (;;) {
    co_await ctx.sleep_for(cfg_.period);
    ++ticks_;
    for (auto& r : regs_) {
      const auto before = r.obj->costs().reconfiguration_ops;
      const auto delivered = r.obj->pump();
      const auto reconfigs = r.obj->costs().reconfiguration_ops - before;
      pumped_ += delivered;
      co_await charge(ctx, r, delivered, reconfigs);
    }
    if (tick_observer_) tick_observer_(ticks_);
    // Last thread standing: the workload drained, so stop and let run()
    // finish. (Start the runtime after forking the workload.)
    if (ctx.rt().live_threads() <= 1) break;
  }
}

ct::task<void> async_runtime::charge(ct::context& ctx, const registration& r,
                                     std::uint64_t delivered,
                                     std::uint64_t reconfigs) {
  // Mirrors adaptive_lock::post_release_hook's accounting, but billed to
  // the daemon on its own processor — that is the entire point: the
  // operating threads' fast path no longer carries these charges.
  if (delivered > 0) {
    if (r.lock != nullptr) {
      co_await ctx.touch(r.lock->home(), sim::access_kind::read, delivered);
    }
    co_await ctx.compute((r.cost.monitor_sample_overhead + r.cost.policy_execution) *
                         static_cast<std::int64_t>(delivered));
  }
  if (reconfigs > 0) {
    co_await ctx.compute(r.cost.configure_attr_overhead *
                         static_cast<std::int64_t>(reconfigs));
    if (r.lock != nullptr) {
      co_await ctx.touch(r.lock->home(), sim::access_kind::read, reconfigs);
      co_await ctx.touch(r.lock->home(), sim::access_kind::write, reconfigs);
      const auto& e = r.lock->engine();
      const auto& d = e.last_decision();
      r.lock->stats().on_reconfigure(ctx.now(), ctx.self(), d.sensor_value,
                                     locks::describe(d.applied), e.policy_name(),
                                     d.sensors);
    }
  }
}

}  // namespace adx::policy
