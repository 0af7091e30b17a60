#include "locks/reconfigurable_lock.hpp"

#include <sstream>

namespace adx::locks {

std::string describe(const waiting_policy& wp) {
  std::ostringstream os;
  if (wp.is_pure_spin()) {
    os << "pure-spin(" << wp.spin_time << ')';
  } else if (wp.is_pure_sleep()) {
    os << "pure-blocking";
  } else if (wp.timeout_us > 0) {
    os << "conditional(spin=" << wp.spin_time << ",timeout=" << wp.timeout_us << "us)";
  } else if (wp.sleep_time > 0) {
    os << "spin-then-block(" << wp.spin_time << ')';
  } else {
    os << "spin-backoff(" << wp.spin_time << ',' << wp.delay_time << ')';
  }
  return os.str();
}

reconfigurable_lock::reconfigurable_lock(sim::node_id home, lock_cost_model cost,
                                         waiting_policy initial,
                                         std::unique_ptr<lock_scheduler> sched)
    : lock_object(home, cost),
      core::adaptive_object("fcfs"),
      sched_(sched ? std::move(sched) : std::make_unique<fcfs_scheduler>()) {
  auto& a = attributes();
  a.declare("spin-time", initial.spin_time);
  a.declare("delay-time", initial.delay_time);
  a.declare("sleep-time", initial.sleep_time);
  a.declare("timeout", initial.timeout_us);
  a.declare("grant-mode", 0);  // 0 = direct handoff, 1 = release-and-retry
  policy_attr_ = {a.index_of("spin-time"), a.index_of("delay-time"),
                  a.index_of("sleep-time"), a.index_of("timeout")};
  grant_mode_attr_ = a.index_of("grant-mode");
  init_method_impl(std::string(sched_->name()));
}

waiting_policy reconfigurable_lock::current_policy() const {
  const auto& a = attributes();
  return {a.by_index(policy_attr_[0]).get(), a.by_index(policy_attr_[1]).get(),
          a.by_index(policy_attr_[2]).get(), a.by_index(policy_attr_[3]).get()};
}

bool reconfigurable_lock::apply_waiting_policy(const waiting_policy& wp,
                                               std::optional<core::agent_id> who,
                                               sim::vtime at) {
  auto& a = attributes();
  const auto cur = current_policy();
  if (cur == wp) return true;  // no-op: no Ψ recorded
  // All-or-nothing check first (ownership / mutability), then apply.
  for (const auto i : policy_attr_) {
    const auto& attr = a.by_index(i);
    if (!attr.is_mutable()) return false;
    if (attr.owner() && (!who || *who != *attr.owner())) return false;
  }
  // The four sets below form one Ψ transition: the single-threaded event loop
  // makes the window atomic (no awaits), and the brackets let an attached
  // observer verify that — any lock traffic between them is a violation.
  stats_.on_psi_begin(at);
  a.by_index(policy_attr_[0]).set(wp.spin_time, who);
  a.by_index(policy_attr_[1]).set(wp.delay_time, who);
  a.by_index(policy_attr_[2]).set(wp.sleep_time, who);
  a.by_index(policy_attr_[3]).set(wp.timeout_us, who);
  stats_.on_psi_end(at);
  note_reconfiguration(core::op_cost{1, 1});  // packed policy word
  return true;
}

ct::task<void> reconfigurable_lock::lock(ct::context& ctx) {
  const auto requested = ctx.now();
  stats_.on_request(requested, ctx.self());
  // The adaptive/reconfigurable lock path initially spins before deciding to
  // block, so its lock-op cost tracks the spin lock's (Table 4).
  co_await ctx.compute(cost_.spin_lock_overhead);
  if (co_await try_acquire(ctx)) {
    stats_.on_acquired(ctx.now(), ctx.now() - requested, ctx.self());
    co_return;
  }
  stats_.on_contended(ctx.now(), ctx.self());
  note_waiting(ctx.now(), +1);

  for (bool acquired = false; !acquired;) {
    // Attributes are re-read every round: reconfiguration (including by the
    // in-object adaptation policy) takes effect on waiting threads mid-wait.
    const auto wp = current_policy();

    if (wp.spin_time > 0) {
      if (co_await spin_ttas(ctx, wp.spin_time)) break;
    }
    if (wp.delay_time > 0) {
      co_await ctx.compute(cost_.backoff_quantum * wp.delay_time);
      const auto v = co_await ctx.read(word_);
      if ((v & 1) == 0 && co_await try_acquire(ctx)) break;
    }
    if (wp.timeout_us > 0) {
      // Conditional sleep: register and block with a timeout.
      co_await ctx.touch(home(), sim::access_kind::write, 2);
      // --- atomic window: missed-release re-check.
      if ((word_.raw() & 1) == 0) {
        if (co_await try_acquire(ctx)) break;
        continue;
      }
      sched_->register_waiter(ctx.self(), ctx.priority());
      stats_.on_block(ctx.now(), ctx.self());
      const bool woken = co_await ctx.block_for(
          sim::microseconds(static_cast<double>(wp.timeout_us)));
      if (woken) {
        if (owner() == ctx.self()) break;  // handoff grant
        continue;                          // release-and-retry wakeup
      }
      sched_->deregister(ctx.self());  // expired: withdraw registration
      continue;
    }
    if (wp.sleep_time > 0) {
      co_await ctx.touch(home(), sim::access_kind::write, 2);
      if ((word_.raw() & 1) == 0) {
        if (co_await try_acquire(ctx)) break;
        continue;
      }
      sched_->register_waiter(ctx.self(), ctx.priority());
      stats_.on_block(ctx.now(), ctx.self());
      co_await ctx.block();
      // Direct handoff made us owner; under release-and-retry we were merely
      // woken and must re-compete.
      if (owner() == ctx.self()) break;
      continue;
    }
    if (wp.spin_time <= 0 && wp.delay_time <= 0) {
      // Degenerate all-zero policy: behave as a modest pure spin.
      if (co_await spin_ttas(ctx, 16)) break;
    }
  }

  note_waiting(ctx.now(), -1);
  stats_.on_acquired(ctx.now(), ctx.now() - requested, ctx.self());
}

ct::task<void> reconfigurable_lock::unlock(ct::context& ctx) {
  // Spin-lock release path plus the check for currently blocked threads
  // (Table 5: adaptive unlock costs more than spin unlock).
  co_await ctx.compute(cost_.spin_unlock_overhead + cost_.adaptive_unlock_check);
  stats_.on_release(ctx.now(), ctx.self());
  co_await ctx.touch(home(), sim::access_kind::read);  // inspect registrations

  bool handed = false;
  if (attributes().by_index(grant_mode_attr_).get() != 0) {
    // Release-and-retry: free the word first, then wake the scheduler's pick
    // to re-compete (it re-registers if it loses). Keep picking past waiters
    // whose timed waits expired concurrently, so no registrant is stranded.
    co_await release_word(ctx);
    for (;;) {
      const auto next = sched_->pick_next();
      if (!next) break;
      co_await ctx.touch(home(), sim::access_kind::write);
      if (co_await ctx.unblock(*next)) break;
    }
    if (pending_sched_ && sched_->waiting() == 0) {
      // Pre-registered threads all served: adopt the new scheduler here too.
      sched_ = std::move(pending_sched_);
      reconfigure_method_impl(std::string(sched_->name()));
      co_await ctx.touch(home(), sim::access_kind::write);  // reset flag
    }
    co_await post_release_hook(ctx);
    co_return;
  }
  for (;;) {
    const auto next = sched_->pick_next();
    if (!next) break;
    co_await ctx.touch(home(), sim::access_kind::write);  // dequeue record
    set_owner(*next);
    if (co_await ctx.unblock(*next)) {
      stats_.on_handoff(ctx.now(), *next);
      handed = true;
      break;
    }
    set_owner(ct::invalid_thread);  // timed out concurrently; try another
  }

  if (!handed) {
    if (pending_sched_ && sched_->waiting() == 0) {
      // All pre-registered threads served: adopt the new scheduler and reset
      // the transition flag (the deferred 5th write of configure(scheduler)).
      sched_ = std::move(pending_sched_);
      reconfigure_method_impl(std::string(sched_->name()));
      co_await ctx.touch(home(), sim::access_kind::write);
    }
    co_await release_word(ctx);
  }
  co_await post_release_hook(ctx);
}

ct::task<void> reconfigurable_lock::configure_waiting_policy(ct::context& ctx,
                                                             waiting_policy wp) {
  co_await ctx.compute(cost_.configure_attr_overhead);
  co_await ctx.touch(home(), sim::access_kind::read);
  co_await ctx.touch(home(), sim::access_kind::write);
  apply_waiting_policy(wp, std::nullopt, ctx.now());
}

ct::task<void> reconfigurable_lock::configure_scheduler(
    ct::context& ctx, std::unique_ptr<lock_scheduler> next) {
  stats_.on_reconfigure(ctx.now(), ctx.self(), /*sensor_value=*/-1,
                        "scheduler:" + std::string(next->name()));
  co_await ctx.compute(cost_.configure_sched_overhead);
  co_await ctx.touch(home(), sim::access_kind::write, 3);  // three sub-modules
  co_await ctx.touch(home(), sim::access_kind::write);     // set transition flag
  // --- atomic window.
  if (sched_->waiting() == 0 && !pending_sched_) {
    sched_ = std::move(next);
    reconfigure_method_impl(std::string(sched_->name()));
    co_await ctx.touch(home(), sim::access_kind::write);  // immediate flag reset
  } else {
    pending_sched_ = std::move(next);
  }
}

ct::task<bool> reconfigurable_lock::acquire_attribute(ct::context& ctx,
                                                      std::string_view name,
                                                      core::agent_id agent) {
  co_await ctx.compute(cost_.acquisition_overhead);
  co_await ctx.touch(home(), sim::access_kind::rmw);
  co_return attributes().at(name).acquire(agent);
}

ct::task<void> reconfigurable_lock::release_attribute(ct::context& ctx,
                                                      std::string_view name,
                                                      core::agent_id agent) {
  co_await ctx.touch(home(), sim::access_kind::write);
  attributes().at(name).release(agent);
}

ct::task<void> reconfigurable_lock::post_release_hook(ct::context&) { co_return; }

}  // namespace adx::locks
