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
  r.coordinate = params.policy.coordinate;
  r.last_acquisitions = al->stats().acquisitions();
  regs_.push_back(r);
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

bool async_runtime::adopt_map(core::adaptive_object& obj, stripe_controller& ctl,
                              const policy_spec& spec,
                              const locks::lock_cost_model& cost) {
  if (started_) return false;
  if (spec.mode != exec_mode::async) return false;
  registration r;
  r.obj = &obj;
  r.stripes = &ctl;
  r.cost = cost;
  r.coordinate = spec.coordinate;
  regs_.push_back(r);
  return true;
}

void async_runtime::start(ct::runtime& rt) {
  if (started_ || regs_.empty()) return;
  started_ = true;
  rt_ = &rt;
  rt.fork(
      cfg_.proc, [this](ct::context& ctx) { return daemon(ctx); }, cfg_.priority);
}

const async_runtime::registration* async_runtime::coordinated_at(std::size_t i) const {
  std::size_t k = 0;
  for (const auto& r : regs_) {
    if (r.coordinate && r.lock != nullptr) {
      if (k == i) return &r;
      ++k;
    }
  }
  return nullptr;
}

std::size_t async_runtime::coordinated_locks() const {
  std::size_t k = 0;
  for (const auto& r : regs_) {
    if (r.coordinate && r.lock != nullptr) ++k;
  }
  return k;
}

std::uint64_t async_runtime::coordinated_acquisitions(std::size_t i) const {
  const auto* r = coordinated_at(i);
  return r == nullptr ? 0 : r->lock->stats().acquisitions();
}

bool async_runtime::apply_external_demotion(std::size_t i,
                                            const locks::waiting_policy& pol) {
  std::size_t k = 0;
  for (auto& r : regs_) {
    if (!r.coordinate || r.lock == nullptr) continue;
    if (k++ != i) continue;
    if (r.lock->current_policy() == pol) return false;
    const auto now = rt_ != nullptr ? rt_->now() : sim::vtime{};
    if (!r.lock->apply_waiting_policy(pol, std::nullopt, now)) return false;
    r.demoted = true;
    ++demotions_;
    r.lock->stats().on_reconfigure(now, ct::invalid_thread, 0,
                                   locks::describe(pol), "fed-coordinator",
                                   "[cross-shard]");
    return true;
  }
  return false;
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
    co_await coordinate(ctx);
    if (tick_observer_) tick_observer_(ticks_);
    if (cfg_.max_ticks != 0 && ticks_ >= cfg_.max_ticks) break;
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

ct::task<void> async_runtime::coordinate(ct::context& ctx) {
  const auto& cc = cfg_.coord;

  // Idle-lock demotion: a coordinated lock whose acquisition count stayed
  // flat for `idle_ticks` consecutive ticks is demoted to the cheap policy.
  // First activity afterwards re-arms it (its own policy can then promote
  // it back from fresh observations). With an external tick observer
  // attached the scan is skipped entirely — the federated coordinator owns
  // idle decisions then, fed by the acquisition reports it collects.
  if (cc.idle_ticks > 0 && !tick_observer_) {
    for (auto& r : regs_) {
      if (!r.coordinate || r.lock == nullptr) continue;
      const auto acq = r.lock->stats().acquisitions();
      if (acq == r.last_acquisitions) {
        ++r.idle_streak;
      } else {
        r.idle_streak = 0;
        r.demoted = false;
      }
      r.last_acquisitions = acq;
      if (r.demoted || r.idle_streak < cc.idle_ticks) continue;
      if (r.lock->current_policy() == cc.idle_policy) {
        r.demoted = true;
        continue;
      }
      if (!r.lock->apply_waiting_policy(cc.idle_policy, std::nullopt, ctx.now())) {
        continue;
      }
      r.demoted = true;
      ++demotions_;
      co_await ctx.compute(r.cost.configure_attr_overhead);
      co_await ctx.touch(r.lock->home(), sim::access_kind::read, 1);
      co_await ctx.touch(r.lock->home(), sim::access_kind::write, 1);
      r.lock->stats().on_reconfigure(ctx.now(), ctx.self(),
                                     static_cast<std::int64_t>(r.idle_streak),
                                     locks::describe(cc.idle_policy), "coordinator",
                                     "[idle-ticks=" + std::to_string(r.idle_streak) +
                                         "]");
    }
  }

  // Aggregate stripe budget: when the coordinated maps' total active
  // stripes exceed the budget, shrink the widest one by its own factor.
  // The request is applied cooperatively by the map's next operation.
  if (cc.stripe_budget > 0) {
    unsigned total = 0;
    registration* widest = nullptr;
    for (auto& r : regs_) {
      if (!r.coordinate || r.stripes == nullptr) continue;
      const auto active = r.stripes->active_stripes();
      total += active;
      if (widest == nullptr || active > widest->stripes->active_stripes()) {
        widest = &r;
      }
    }
    if (widest != nullptr && total > cc.stripe_budget) {
      auto& s = *widest->stripes;
      const unsigned f = s.stripe_factor() < 2 ? 2 : s.stripe_factor();
      const unsigned floor = s.min_stripes();
      const unsigned target = s.active_stripes() / f < floor ? floor
                                                             : s.active_stripes() / f;
      if (target < s.active_stripes()) {
        s.request_stripes(target);
        ++stripe_caps_;
        co_await ctx.compute(widest->cost.configure_attr_overhead);
      }
    }
  }
}

}  // namespace adx::policy
