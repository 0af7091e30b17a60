#include "objects/adaptive_monitor.hpp"

#include <cmath>
#include <string>

namespace adx::objects {

adaptive_monitor::adaptive_monitor(const monitor_config& cfg)
    : core::adaptive_object(cfg.initial_mode == kDelegated ? "delegated" : "classic"),
      cfg_(cfg),
      lock_(locks::make_lock(cfg.lock, cfg.home, cfg.cost, cfg.lock_params)) {
  attributes().declare("execution-mode", cfg.initial_mode);
  if (cfg_.adaptive) policy::install(*this, *this, *this, cfg_.spec);
}

ct::task<void> adaptive_monitor::enter(ct::context& ctx) {
  ++entries_;
  co_await lock_->lock(ctx);
}

ct::task<void> adaptive_monitor::exit(ct::context& ctx) {
  co_await release(ctx);
  co_await after_section(ctx);
}

ct::task<void> adaptive_monitor::wait(ct::context& ctx) {
  // cv_.wait releases the entry lock internally, so the release-epoch
  // obligation applies here too: drain anything published against this
  // holder before the lock can change hands. The epoch mark stays up for
  // the whole wait (the flag is only cleared by its setter), which merely
  // sends arrivals to the entry lock — safe, since every later holder
  // drains at its own release.
  releasing_by_ = ctx.self();
  co_await drain_pending(ctx);
  co_await cv_.wait(ctx, *lock_);
  if (releasing_by_ == ctx.self()) releasing_by_ = ct::invalid_thread;
}

ct::task<void> adaptive_monitor::signal(ct::context& ctx) { co_await cv_.signal(ctx); }

ct::task<void> adaptive_monitor::broadcast(ct::context& ctx) {
  co_await cv_.broadcast(ctx);
}

void adaptive_monitor::request_mode(std::int64_t m) {
  const auto want = m == 0 ? kClassic : kDelegated;
  if (want == mode()) return;
  if (reconfigure_attribute("execution-mode", want) == core::set_result::ok) {
    reconfigure_method_impl(want == kDelegated ? "delegated" : "classic");
    ++mode_switches_;
  }
}

std::span<const std::string_view> adaptive_monitor::sensor_names() const {
  return monitor_sensor_names();
}

core::sensor adaptive_monitor::make_sensor(std::string_view name, std::uint64_t period) {
  if (name == "section-time") {
    return core::sensor(
        std::string(name), [this] { return last_section_us_; }, period);
  }
  if (name == "monitor-waiters") {
    return core::sensor(
        std::string(name),
        [this] {
          return lock_->waiting_now() + static_cast<std::int64_t>(pending_.size());
        },
        period);
  }
  if (name == "entry-rate") {
    return core::sensor(
        std::string(name),
        [this] {
          const auto delta = entries_ - entries_at_last_sample_;
          entries_at_last_sample_ = entries_;
          return static_cast<std::int64_t>(delta);
        },
        period);
  }
  policy::sensor_host::throw_unknown_sensor(name, monitor_sensor_names());
}

ct::task<void> adaptive_monitor::run_section(ct::context& ctx, sim::vdur work,
                                             std::uint64_t touches) {
  if (work.ns > 0) co_await ctx.compute(work);
  if (touches > 0) co_await ctx.touch(cfg_.home, sim::access_kind::write, touches);
  last_section_us_ = static_cast<std::int64_t>(std::llround(work.us()));
}

ct::task<void> adaptive_monitor::drain_pending(ct::context& ctx) {
  while (!pending_.empty()) {
    pending_req* r = pending_.front();
    pending_.pop_front();
    co_await ctx.touch(cfg_.home, sim::access_kind::read, 1);
    co_await run_section(ctx, r->work, r->touches);
    r->fn();
    r->done = true;
    co_await ctx.unblock(r->tid);
  }
}

ct::task<void> adaptive_monitor::release(ct::context& ctx) {
  releasing_by_ = ctx.self();
  co_await drain_pending(ctx);
  co_await lock_->unlock(ctx);
  // Guarded clear: a handoff successor may already have opened its own
  // release epoch by the time this resumes — never stomp it.
  if (releasing_by_ == ctx.self()) releasing_by_ = ct::invalid_thread;
}

ct::task<void> adaptive_monitor::after_section(ct::context& ctx) {
  const auto delivered = feedback_point();
  if (delivered > 0) {
    co_await ctx.compute((cfg_.cost.monitor_sample_overhead + cfg_.cost.policy_execution) *
                         static_cast<std::int64_t>(delivered));
  }
}

}  // namespace adx::objects
